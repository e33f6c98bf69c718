//! Regenerates paper Table 6 (most commonly performed transitions per
//! application and selection rule).
//!
//! ```text
//! cargo run --release -p cs-bench --bin table6_transitions [scale]
//! ```

use std::collections::HashMap;

use cs_bench::scale_arg;
use cs_core::SelectionRule;
use cs_workloads::{
    apps,
    runner::{run_app, Mode},
    AppSpec,
};

/// Transition edges of one run, ordered by frequency (most common first),
/// plus the run's guardrail activity (rollbacks, quarantines).
fn transition_counts(app: &AppSpec, rule: SelectionRule) -> (Vec<(String, usize)>, u64, u64) {
    let r = run_app(app, Mode::FullAdap(rule), 42);
    let mut counts: HashMap<String, usize> = HashMap::new();
    for t in &r.transitions {
        *counts
            .entry(format!("{} {}", t.abstraction, t.edge()))
            .or_insert(0) += 1;
    }
    let mut edges: Vec<(String, usize)> = counts.into_iter().collect();
    edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    (edges, r.rollbacks, r.quarantines)
}

fn main() {
    let scale = scale_arg(2);
    println!("# Table 6: most commonly performed transitions (scale {scale})");
    println!("bench     | R_time                                | R_alloc");
    let mut rollbacks = 0u64;
    let mut quarantines = 0u64;
    for app in apps::all_apps(scale) {
        let (rt, rb_t, q_t) = transition_counts(&app, SelectionRule::r_time());
        let (ra, rb_a, q_a) = transition_counts(&app, SelectionRule::r_alloc());
        rollbacks += rb_t + rb_a;
        quarantines += q_t + q_a;
        let fmt = |v: &[(String, usize)]| {
            v.first()
                .map(|(e, n)| format!("{e} (x{n})"))
                .unwrap_or_else(|| "-".into())
        };
        println!("{:9} | {:37} | {}", app.name, fmt(&rt), fmt(&ra));
    }
    println!();
    println!("# full transition lists:");
    for app in apps::all_apps(scale) {
        for (rule_name, rule) in [
            ("R_time", SelectionRule::r_time()),
            ("R_alloc", SelectionRule::r_alloc()),
        ] {
            let (edges, _, _) = transition_counts(&app, rule);
            for (edge, n) in edges {
                println!("#   {:9} {:7} {edge} x{n}", app.name, rule_name);
            }
        }
    }
    println!("# guardrails: {rollbacks} rollbacks, {quarantines} quarantines");
}
