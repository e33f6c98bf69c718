//! Quickstart: instrument an allocation site and watch CollectionSwitch
//! pick a better variant.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use collection_switch::prelude::*;

fn main() {
    // 1. Build an engine. R_time (paper Table 4) asks for a 20% execution
    //    time improvement before switching.
    let engine = Switch::builder().rule(SelectionRule::r_time()).build();

    // 2. Replace the allocation site. Where the code said
    //    `let list = ArrayList::new()` (the JDK default), it now says:
    let ctx = engine.list_context::<i64>(ListKind::Array);

    println!("site starts as: {}", ctx.current_kind());

    // 3. Run a lookup-heavy workload. A sample of the created instances is
    //    monitored; each reports its workload profile when dropped.
    for _round in 0..3 {
        for _ in 0..200 {
            let mut list = ctx.create_list();
            for v in 0..300 {
                list.push(v);
            }
            for v in 0..300 {
                assert!(list.contains(&v));
            }
        }
        // In production you would use `.background()` and let the analyzer
        // thread do this at the monitoring rate (50 ms by default).
        engine.analyze_now();
        println!("after analysis: {}", ctx.current_kind());
    }

    // 4. The site now instantiates a hash-indexed list: O(1) lookups.
    assert_eq!(ctx.current_kind(), ListKind::HashArray);

    println!("\ntransition log:");
    for event in engine.transition_log() {
        println!("  {event}");
    }

    // 5. New instances benefit immediately.
    let mut list = ctx.create_list();
    for v in 0..10_000 {
        list.push(v);
    }
    let t = std::time::Instant::now();
    let mut hits = 0;
    for v in 0..10_000 {
        hits += i64::from(list.contains(&v));
    }
    println!(
        "\n10k lookups on a 10k-element list: {:?} ({hits} hits)",
        t.elapsed()
    );
}
