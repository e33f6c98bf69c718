//! A pipeline whose workload changes phase at runtime — the situation the
//! paper's multi-phase experiment (Fig. 6) models: no single variant is
//! optimal for the whole run, so the allocation context re-converges as the
//! dominant operation changes.
//!
//! ```text
//! cargo run --release --example phased_pipeline
//! ```

use std::rc::Rc;
use std::time::Instant;

use collection_switch::prelude::*;

/// Reference-typed element (the JVM-`Integer` analogue; see DESIGN.md).
type Item = Rc<i64>;

fn main() {
    let engine = Switch::builder().rule(SelectionRule::r_time()).build();
    let ctx = engine.list_context::<Item>(ListKind::Array);

    // Phase 1 — deduplication: membership tests dominate.
    run_phase("dedup (contains-heavy)", &engine, &ctx, |list| {
        let mut dups = 0;
        for v in 0..400 {
            let item = Rc::new(v % 250);
            if list.contains(&item) {
                dups += 1;
            } else {
                list.push(item);
            }
        }
        dups
    });
    println!("  -> site now instantiates: {}\n", ctx.current_kind());
    assert_eq!(ctx.current_kind(), ListKind::HashArray);

    // Phase 2 — ingestion: appends dominate; the hash index's per-push
    // upkeep is dead weight and the context walks back to the plain array.
    run_phase("ingest (append-heavy)", &engine, &ctx, |list| {
        for v in 0..800 {
            list.push(Rc::new(v));
        }
        let mut total = 0usize;
        list.for_each(|_| total += 1);
        total
    });
    println!("  -> site now instantiates: {}\n", ctx.current_kind());
    assert_eq!(
        ctx.current_kind(),
        ListKind::Array,
        "phase change must re-converge"
    );

    println!("transition log:");
    for event in engine.transition_log() {
        println!("  {event}");
    }
}

fn run_phase(
    name: &str,
    engine: &Switch,
    ctx: &ListContext<Item>,
    mut work: impl FnMut(&mut SwitchList<Item>) -> usize,
) {
    println!("phase: {name}");
    for round in 0..4 {
        let start = Instant::now();
        let mut acc = 0;
        for _ in 0..120 {
            let mut list = ctx.create_list();
            acc += work(&mut list);
        }
        engine.analyze_now();
        println!(
            "  round {round}: {:6.2} ms (acc {acc}, variant {})",
            start.elapsed().as_secs_f64() * 1e3,
            ctx.current_kind()
        );
    }
}
