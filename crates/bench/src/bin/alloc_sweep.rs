//! Allocation-observability sweep: attribution exactness and an
//! alloc-driven switch.
//!
//! ```text
//! cargo run --release -p cs-bench --bin alloc_sweep -- [--quick] [--out PATH]
//! ```
//!
//! This binary installs [`cs_heap::CountingAlloc`] (the opt-in every
//! observability-enabled binary makes) and writes `BENCH_alloc.json`
//! (schema in EXPERIMENTS.md). It is a gate — exit is nonzero when either
//! of two claims fails on this machine:
//!
//! 1. **Attribution exactness** — 4 worker threads each run their entire
//!    allocating workload inside nested [`cs_heap::AllocGuard`] windows and
//!    compare the summed attribution against their own thread ledger delta.
//!    The documented exact case (every allocation guarded, every op
//!    sampled) must hold **bit-for-bit**: attributed counts and bytes equal
//!    the ledger's, per thread, no tolerance.
//! 2. **Alloc-driven switch** — a growth-churn list workload (populate
//!    runs, the paper's churn-heavy shape) drives a `ListKind::Linked`
//!    context under `R_alloc_rate`. The linked variant pays a 32-byte slab
//!    slot per element against the array's 8-byte cell, both on a doubling
//!    ladder — roughly 4× the byte churn per push. The engine must switch
//!    away from Linked with `SelectionExplanation.alloc_driven == true`,
//!    and after the history decays across post-switch rounds the
//!    *measured* `alloc_bytes_per_op` must drop at least 2× — the
//!    LinkedList→ArrayList per-node elimination, observed rather than
//!    modeled.
//!
//! The harness stamp heads the artifact; with the counting allocator
//! installed, its `process` block carries the real heap account, so BENCH
//! files are comparable on memory across PRs.
//!
//! `--out PATH` selects the results file, default `BENCH_alloc.json`.
//! `--quick` selects the tiny CI budget; the gates are identical in both
//! modes.

use std::process::ExitCode;

use cs_bench::{run_sweep, Sweep};
use cs_collections::ListKind;
use cs_core::{AnyContext, SelectionOutcome, SelectionRule, Switch};
use cs_heap::{AllocDelta, AllocGuard, HeapAccount};
use cs_model::default_models;
use cs_profile::WindowConfig;
use cs_telemetry::{explanation_to_json, Json};

#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

/// Post-switch measured `alloc_bytes_per_op` must drop at least this
/// factor below the pre-switch measurement.
const SWITCH_DROP_FLOOR: f64 = 2.0;
/// Worker threads of the exactness stress.
const EXACTNESS_THREADS: usize = 4;

// ---------------------------------------------------------------------------
// Part 1: attribution exactness under 4 threads.
// ---------------------------------------------------------------------------

struct ExactnessRow {
    thread: usize,
    attributed: AllocDelta,
    ledger: HeapAccount,
    exact: bool,
}

/// One thread's guarded workload: every allocation happens inside an
/// outermost guard (some inside a nested guard, exercising the exclusion
/// ledger), so the partition identity must hold exactly — the summed net
/// attribution equals the thread ledger's alloc delta, counts and bytes.
fn exactness_worker(thread: usize, iterations: u64) -> ExactnessRow {
    cs_heap::pin_thread();
    let start = cs_heap::thread_account();
    let mut attributed = AllocDelta::default();
    for i in 0..iterations {
        let outer = AllocGuard::begin();
        let inner = AllocGuard::begin();
        let nested = vec![0u8; 64 + (i % 7) as usize * 32];
        let inner_delta = inner.finish();
        let mut own: Vec<u64> = Vec::with_capacity(8 + (i % 13) as usize);
        own.push(i);
        std::hint::black_box((&nested, &own));
        let outer_delta = outer.finish();
        attributed.count += inner_delta.count + outer_delta.count;
        attributed.bytes += inner_delta.bytes + outer_delta.bytes;
    }
    let ledger = cs_heap::thread_account().delta_since(&start);
    let exact = attributed.count == ledger.alloc_count && attributed.bytes == ledger.alloc_bytes;
    ExactnessRow {
        thread,
        attributed,
        ledger,
        exact,
    }
}

fn run_exactness(iterations: u64, sweep: &mut Sweep) -> Vec<ExactnessRow> {
    let rows: Vec<ExactnessRow> = (0..EXACTNESS_THREADS)
        .map(|t| std::thread::spawn(move || exactness_worker(t, iterations)))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("exactness worker panicked"))
        .collect();
    for row in &rows {
        sweep.check(row.exact, || {
            format!(
                "attribution exactness violated on thread {}: attributed \
                 {}/{}B vs ledger {}/{}B",
                row.thread,
                row.attributed.count,
                row.attributed.bytes,
                row.ledger.alloc_count,
                row.ledger.alloc_bytes,
            )
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Part 2: the alloc-driven switch.
// ---------------------------------------------------------------------------

/// Instances per analysis round; must satisfy the bench window's
/// round-readiness rule (min_samples 5, finished ratio 0.6).
const INSTANCES_PER_ROUND: usize = 6;
/// Post-switch churn+analyze rounds: each halves the Linked residue in the
/// decayed history (`history_decay` 0.5), so three rounds leave the
/// measured rate dominated by the new variant.
const POST_SWITCH_ROUNDS: usize = 3;

/// The growth-churn shape: populate runs, fresh instance per run. Every
/// push grows the collection, so the byte churn per op is the variant's
/// per-element footprint on its doubling ladder — ~32 B/element slab slots
/// on Linked vs ~8 B/element cells on Array, the contrast the alloc-rate
/// dimension exists to observe.
fn churn_round(ctx: &cs_core::ListContext<u64>, pushes: u64) {
    for _ in 0..INSTANCES_PER_ROUND {
        let mut list = ctx.create_list();
        for v in 0..pushes {
            list.push(v);
        }
    }
}

struct SwitchResult {
    pre: cs_core::SelectionExplanation,
    post: cs_core::SelectionExplanation,
    final_kind: String,
    drop_factor: f64,
}

fn run_switch_demo(sweep: &mut Sweep) -> SwitchResult {
    let pushes = if sweep.quick() { 512 } else { 4_096 };
    let engine = Switch::builder()
        .window(WindowConfig {
            window_size: 10,
            min_samples: 5,
            ..WindowConfig::default()
        })
        .build();
    let ctx = engine.list_context::<u64>(ListKind::Linked);
    let rule = SelectionRule::r_alloc_rate();
    let model = default_models::list_model();

    churn_round(&ctx, pushes);
    ctx.core().analyze(model, &rule);
    let pre = ctx
        .core()
        .explain()
        .expect("a ready churn round scores candidates");
    sweep.check(pre.outcome == SelectionOutcome::Switched, || {
        format!(
            "expected an alloc-rate switch away from Linked, got {:?}",
            pre.outcome
        )
    });
    sweep.check(pre.alloc_driven, || {
        format!("the R_alloc_rate switch must report alloc_driven, got {pre:?}")
    });
    sweep.check(ctx.current_kind() != ListKind::Linked, || {
        "context still on Linked after the switch round".into()
    });

    // Same workload on the new variant; the decayed history converges to
    // the post-switch measured rate over a few rounds.
    let mut post = pre.clone();
    for _ in 0..POST_SWITCH_ROUNDS {
        churn_round(&ctx, pushes);
        ctx.core().analyze(model, &rule);
        post = ctx
            .core()
            .explain()
            .expect("post-switch rounds keep scoring");
    }
    let drop_factor = if post.alloc_bytes_per_op > 0.0 {
        pre.alloc_bytes_per_op / post.alloc_bytes_per_op
    } else if pre.alloc_bytes_per_op > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    sweep.check(pre.alloc_bytes_per_op > 0.0, || {
        "pre-switch workload attributed no allocation".into()
    });
    sweep.check(drop_factor >= SWITCH_DROP_FLOOR, || {
        format!(
            "post-switch alloc_bytes_per_op dropped only {drop_factor:.2}x \
             ({:.2} -> {:.2} B/op), need >= {SWITCH_DROP_FLOOR}x",
            pre.alloc_bytes_per_op, post.alloc_bytes_per_op,
        )
    });
    SwitchResult {
        pre,
        post,
        final_kind: ctx.current_kind().to_string(),
        drop_factor,
    }
}

// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    run_sweep("alloc_sweep", std::env::args().skip(1), sweep)
}

fn sweep(sweep: &mut Sweep) -> Json {
    let exact_iters = if sweep.quick() { 20_000u64 } else { 200_000u64 };

    println!(
        "# alloc sweep: {EXACTNESS_THREADS}-thread exactness x{exact_iters}, \
         R_alloc_rate switch demo (quick={})",
        sweep.quick()
    );

    let exactness = run_exactness(exact_iters, sweep);
    for row in &exactness {
        println!(
            "exactness thread {}: attributed {} events / {} B, ledger {} / {} B -> {}",
            row.thread,
            row.attributed.count,
            row.attributed.bytes,
            row.ledger.alloc_count,
            row.ledger.alloc_bytes,
            if row.exact { "exact" } else { "MISMATCH" },
        );
    }

    let switched = run_switch_demo(sweep);
    println!(
        "switch: {} -> {} under {}, alloc_driven={}, {:.2} -> {:.2} B/op ({:.1}x drop)",
        switched.pre.current,
        switched.final_kind,
        switched.pre.rule,
        switched.pre.alloc_driven,
        switched.pre.alloc_bytes_per_op,
        switched.post.alloc_bytes_per_op,
        switched.drop_factor,
    );

    Json::object()
        .field(
            "exactness",
            Json::object()
                .field("threads", EXACTNESS_THREADS)
                .field("iterations_per_thread", exact_iters)
                .field("exact", exactness.iter().all(|r| r.exact))
                .field(
                    "rows",
                    Json::Array(
                        exactness
                            .iter()
                            .map(|r| {
                                Json::object()
                                    .field("thread", r.thread)
                                    .field("attributed_count", r.attributed.count)
                                    .field("attributed_bytes", r.attributed.bytes)
                                    .field("ledger_alloc_count", r.ledger.alloc_count)
                                    .field("ledger_alloc_bytes", r.ledger.alloc_bytes)
                                    .field("exact", r.exact)
                            })
                            .collect(),
                    ),
                ),
        )
        .field(
            "switch",
            Json::object()
                .field("rule", switched.pre.rule.as_str())
                .field("final_kind", switched.final_kind.as_str())
                .field("alloc_driven", switched.pre.alloc_driven)
                .field("pre_alloc_bytes_per_op", switched.pre.alloc_bytes_per_op)
                .field("post_alloc_bytes_per_op", switched.post.alloc_bytes_per_op)
                .field("drop_factor", switched.drop_factor)
                .field("drop_floor", SWITCH_DROP_FLOOR)
                .field("pre", explanation_to_json(&switched.pre))
                .field("post", explanation_to_json(&switched.post)),
        )
}
