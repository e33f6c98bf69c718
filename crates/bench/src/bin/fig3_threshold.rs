//! Regenerates paper Fig. 3 (transition-threshold analysis of the adaptive
//! collections) and Table 1 (the resulting thresholds).
//!
//! ```text
//! cargo run --release -p cs-bench --bin fig3_threshold [--sweep]
//! ```
//!
//! Prints the benefit-vs-size series for AdaptiveSet (the paper's Fig. 3
//! subject) and the computed optimal thresholds for all three adaptive
//! collections. `--sweep` additionally reports how end-to-end lookup time
//! varies around the chosen threshold (the sensitivity ablation from
//! DESIGN.md §4.5): the median and IQR of one pass of the lookup scenario
//! over `cs_model::timing::time_per_iter`'s samples, each [`SAMPLE`] long.

use cs_collections::AdaptiveSet;
use cs_model::default_models;
use cs_model::threshold::{
    list_benefit_curve, map_benefit_curve, optimal_threshold, set_benefit_curve,
};
use cs_model::timing::{time_per_iter, SAMPLE};

fn main() {
    let sweep = std::env::args().any(|a| a == "--sweep");

    println!("# Fig. 3: transition threshold analysis of AdaptiveSet");
    println!("# benefit > 0 means transitioning to the hash table pays off");
    println!("size\tbenefit(ns)");
    let set_curve = set_benefit_curve(default_models::set_model(), 1..=80);
    for p in set_curve.iter().filter(|p| p.size % 5 == 0) {
        println!("{}\t{:.1}", p.size, p.benefit);
    }

    let set_t = optimal_threshold(&set_curve);
    let map_t = optimal_threshold(&map_benefit_curve(default_models::map_model(), 1..=120));
    let list_t = optimal_threshold(&list_benefit_curve(default_models::list_model(), 1..=200));

    println!();
    println!("# Table 1: adaptive collection transition thresholds");
    println!("collection   \ttransition      \tcomputed\tpaper");
    println!(
        "AdaptiveList \tarray -> hash    \t{}\t\t80",
        list_t.map_or("-".into(), |t| t.to_string())
    );
    println!(
        "AdaptiveSet  \tarray -> openhash\t{}\t\t40",
        set_t.map_or("-".into(), |t| t.to_string())
    );
    println!(
        "AdaptiveMap  \tarray -> openhash\t{}\t\t50",
        map_t.map_or("-".into(), |t| t.to_string())
    );

    if sweep {
        println!();
        println!("# Sensitivity sweep: measured lookup-scenario time by threshold");
        println!("threshold\tns_per_pass\tiqr_ns");
        for threshold in [10, 20, 30, 40, 50, 60, 80, 120] {
            let t = time_per_iter(SAMPLE, || lookup_scenario(threshold));
            println!("{threshold}\t{:.0}\t{:.0}", t.median_ns, t.iqr_ns);
        }
    }
}

/// One pass of the paper's threshold-finding scenario: populate to a
/// spread of sizes and look up every element once.
fn lookup_scenario(threshold: usize) {
    for size in (8..=96).step_by(8) {
        let mut set = AdaptiveSet::with_threshold(threshold);
        for v in 0..size as i64 {
            set.insert(v);
        }
        let mut hits = 0;
        for v in 0..size as i64 {
            hits += usize::from(set.contains(&v));
        }
        assert_eq!(hits, size);
    }
}
