//! Guarded adaptation: post-switch verification, rollback, and quarantine.
//!
//! ```text
//! cargo run --release --example guarded_adaptation
//! ```
//!
//! The engine normally trusts its cost models, but models can be wrong —
//! miscalibrated, stale, or built on a different machine. This example
//! deliberately feeds the engine an *inverted* list model that claims the
//! linked variant is 100x faster than the array variant on a scan-heavy
//! site. The guardrail layer then:
//!
//! 1. lets the (bad) switch happen,
//! 2. measures the next monitoring window under the new variant,
//! 3. sees that the realized cost regressed instead of improving,
//! 4. rolls the site back to the previous variant, and
//! 5. quarantines the candidate so the model cannot re-select it.

use collection_switch::model::{CostDimension, PerformanceModel, Polynomial, VariantCostModel};
use collection_switch::prelude::*;
use collection_switch::profile::OpKind;

/// A list model that prices every variant with a flat per-op time cost.
fn flat_list_model(costs: &[(ListKind, f64)]) -> PerformanceModel<ListKind> {
    let mut model = PerformanceModel::new();
    for &(kind, cost) in costs {
        let mut variant = VariantCostModel::new();
        for op in OpKind::ALL {
            variant.set_op_cost(CostDimension::Time, op, Polynomial::constant(cost));
        }
        model.insert_variant(kind, variant);
    }
    model
}

fn scan_round(ctx: &ListContext<i64>) {
    for _ in 0..60 {
        let mut list = ctx.create_list();
        for v in 0..1024 {
            list.push(v);
        }
        for v in 0..1024 {
            assert!(list.contains(&v));
        }
    }
}

fn main() {
    // An adversarially wrong model: Array allegedly costs 100 ns/op,
    // Linked 1 ns/op. On a scan-heavy workload reality is the opposite.
    let models = collection_switch::core::Models {
        list: flat_list_model(&[
            (ListKind::Array, 100.0),
            (ListKind::Linked, 1.0),
            (ListKind::HashArray, 10_000.0),
            (ListKind::Adaptive, 10_000.0),
        ]),
        ..Default::default()
    };

    // Guardrails are on by default; spelling them out shows all three
    // knobs at their defaults. A switch must not regress measured per-op
    // time by more than 25% over what the model promised, sites wait 1
    // analysis round between transitions, and a refuted candidate is
    // quarantined for 4 rounds (doubling on every repeat offence, up to
    // 64 rounds).
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(models)
        .guardrails(
            GuardrailConfig::default()
                .verify_tolerance(0.25)
                .cooldown_rounds(1)
                .quarantine_base(4),
        )
        .build();
    let ctx = engine.named_list_context::<i64>(ListKind::Array, "example/guarded");

    println!("site starts as: {}", ctx.current_kind());

    // Round 1 establishes the baseline and lets the bad model provoke the
    // switch; round 2 measures the damage and rolls it back; round 3 shows
    // that the quarantined candidate stays excluded.
    for round in 1..=3 {
        scan_round(&ctx);
        engine.analyze_now();
        println!("after round {round}: {}", ctx.current_kind());
    }

    let stats = ctx.stats();
    println!(
        "\nswitches: {}, rollbacks: {}, degraded: {}",
        stats.switches,
        stats.rollbacks,
        engine.is_degraded()
    );

    println!("\nengine event log:");
    for event in engine.event_log() {
        println!("  {event}");
    }

    assert_eq!(stats.switches, 1, "the inverted model provoked one switch");
    if stats.rollbacks == 1 {
        println!(
            "\nverification caught the bad switch and restored {}",
            ctx.current_kind()
        );
    } else {
        // Verification is a wall-clock measurement; on a noisy machine the
        // regression can fall inside the tolerance.
        println!("\nno rollback this run — realized cost stayed within tolerance");
    }
}
