//! End-to-end allocation attribution on the handle op path.
//!
//! This binary installs the counting allocator (the opt-in every
//! observability-enabled binary makes), drives monitored and unmonitored
//! handles through allocating operations, and checks that the attributed
//! churn flows all the way into the selection explanation — the same
//! numbers the alloc-rate dimension consumes.

use cs_collections::{ListKind, SetKind};
use cs_core::{AnyContext, SelectionRule, Switch};
use cs_model::default_models;
use cs_profile::WindowConfig;

#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

fn small_window() -> WindowConfig {
    WindowConfig {
        window_size: 10,
        min_samples: 5,
        ..WindowConfig::default()
    }
}

#[test]
fn monitored_handle_churn_reaches_the_explanation() {
    let engine = Switch::builder().window(small_window()).build();
    let ctx = engine.list_context::<u64>(ListKind::Array);

    // Five finished monitored instances satisfy the default round-readiness
    // rule. 1024 pushes each force several capacity doublings: real
    // allocator traffic attributable to the collection, not the harness.
    for _ in 0..5 {
        let mut list = ctx.create_list();
        assert!(list.is_monitored());
        for v in 0..1024 {
            list.push(v);
        }
    }
    ctx.core()
        .analyze(default_models::list_model(), &SelectionRule::r_time());
    let explanation = ctx
        .core()
        .explain()
        .expect("a ready round scores candidates");
    assert!(
        explanation.alloc_bytes_per_op > 0.0,
        "attributed churn must reach the audit trail: {explanation:?}"
    );
    // 1024 u64s live in the final buffer alone; the doubling ladder churns
    // more than 8 bytes per push on average.
    assert!(
        explanation.alloc_bytes_per_op >= 8.0,
        "attributed rate too low: {}",
        explanation.alloc_bytes_per_op
    );
    assert!(explanation.current_alloc_cost > 0.0);
}

#[test]
fn attribution_stays_exact_while_the_clock_is_sampled() {
    // Only one monitored op in eight reads the wall clock; every op still
    // opens an alloc guard. The site's history must therefore hold exactly
    // the thread's allocation traffic over the ops, and exactly their count.
    let engine = Switch::builder().window(small_window()).build();
    let ctx = engine.list_context::<u64>(ListKind::Linked);
    let mut lists: Vec<_> = (0..10).map(|_| ctx.create_list()).collect();
    assert!(lists.iter().all(|l| l.is_monitored()));

    let before = cs_heap::thread_account();
    for (i, list) in lists.iter_mut().enumerate() {
        for v in 0..(37 * (i as u64 + 1)) {
            list.push(v);
        }
        list.insert(3, 7);
        list.contains(&5);
    }
    let ops = cs_heap::thread_account().delta_since(&before);
    assert!(ops.alloc_count > 0, "linked-list pushes allocate");

    drop(lists);
    ctx.core()
        .analyze(default_models::list_model(), &SelectionRule::r_time());
    assert_eq!(
        ctx.core().history_alloc(),
        (ops.alloc_count, ops.alloc_bytes),
        "every allocating op must be attributed, not a sample of them"
    );
    let explanation = ctx
        .core()
        .explain()
        .expect("a ready round scores candidates");
    // Every push, plus one middle and one contains per list: the op count
    // behind the per-op rate is exact too.
    let pushes: u64 = (1..=10).map(|i| 37 * i).sum();
    assert_eq!(
        explanation.alloc_bytes_per_op,
        ops.alloc_bytes as f64 / (pushes + 20) as f64
    );
    assert_eq!(ctx.core().stats().history_instances, 10);
}

#[test]
fn unmonitored_handles_never_open_a_guard_window() {
    let engine = Switch::builder().window(small_window()).build();
    let ctx = engine.set_context::<u64>(SetKind::Chained);
    // Exhaust the monitoring window (size 10) with untouched instances,
    // then churn an unmonitored one.
    let window: Vec<_> = (0..10).map(|_| ctx.create_set()).collect();
    let mut unmonitored = ctx.create_set();
    assert!(!unmonitored.is_monitored());
    for v in 0..512 {
        unmonitored.insert(v);
    }
    drop(unmonitored);
    let delivered_before = ctx.core().profiles_pushed();
    drop(window);
    // Only the window instances deliver profiles; the unmonitored one is
    // invisible — no profile, hence no attributed churn anywhere.
    assert_eq!(ctx.core().profiles_pushed(), delivered_before + 10);
    ctx.core()
        .analyze(default_models::set_model(), &SelectionRule::r_time());
    assert!(
        ctx.core().explain().is_none(),
        "an all-empty window must bail before scoring"
    );
}

#[test]
fn steady_state_monitored_create_drop_pairs_do_not_allocate() {
    // Each monitored drop pushes one profile into the context's sink. The
    // analyzer's drain leaves the sink's queue its capacity, so once one
    // window has grown it, the next window's pushes allocate nothing.
    let engine = Switch::builder().build();
    let ctx = engine.list_context::<u64>(ListKind::Array);
    let create_and_drop = || {
        let list = ctx.create_list();
        assert!(list.is_monitored());
    };
    (0..100).for_each(|_| create_and_drop());
    engine.analyze_now();
    let before = cs_heap::thread_account();
    (0..100).for_each(|_| create_and_drop());
    let churn = cs_heap::thread_account().delta_since(&before);
    assert_eq!(
        churn.alloc_count, 0,
        "100 create/drop pairs allocated: {churn:?}"
    );
}
