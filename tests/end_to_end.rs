//! Cross-crate integration tests: the full stack from collection substrate
//! through profiling, models, selection engine, and workloads.

use std::time::Duration;

use collection_switch::core::{select_variant, Models, SelectionRule, Switch};
use collection_switch::model::{builder, default_models, persist, PerformanceModel};
use collection_switch::prelude::*;
use collection_switch::profile::{
    OpCounters, OpKind, ProfileHistogram, WindowConfig, WorkloadProfile,
};
use collection_switch::workloads::{
    apps,
    runner::{run_app, Mode},
};
use cs_collections::{LibraryProfile, SetKind};

fn fast_window() -> WindowConfig {
    WindowConfig {
        window_size: 30,
        finished_ratio: 0.6,
        monitoring_rate: Duration::from_millis(5),
        min_samples: 5,
        history_decay: 0.5,
    }
}

#[test]
fn lookup_heavy_list_site_converges_to_hash_array() {
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .build();
    let ctx = engine.list_context::<i64>(ListKind::Array);
    for _ in 0..60 {
        let mut l = ctx.create_list();
        for v in 0..300 {
            l.push(v);
        }
        for v in 0..600 {
            l.contains(&v);
        }
    }
    engine.analyze_now();
    assert_eq!(ctx.current_kind(), ListKind::HashArray);
}

#[test]
fn small_set_site_under_alloc_rule_converges_to_array() {
    let engine = Switch::builder()
        .rule(SelectionRule::r_alloc())
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .build();
    let ctx = engine.set_context::<i64>(SetKind::Chained);
    for _ in 0..60 {
        let mut s = ctx.create_set();
        for v in 0..10 {
            s.insert(v);
        }
        for v in 0..10 {
            s.contains(&v);
        }
    }
    engine.analyze_now();
    assert_eq!(ctx.current_kind(), SetKind::Array);
}

#[test]
fn impossible_rule_performs_full_monitoring_but_never_switches() {
    let engine = Switch::builder()
        .rule(SelectionRule::impossible())
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .build();
    let ctx = engine.map_context::<i64, i64>(MapKind::Chained);
    for _ in 0..60 {
        let mut m = ctx.create_map();
        for v in 0..50 {
            m.insert(v, v);
        }
        for v in 0..100 {
            m.get(&v);
        }
    }
    engine.analyze_now();
    assert_eq!(ctx.current_kind(), MapKind::Chained);
    assert!(engine.transition_log().is_empty());
    assert!(ctx.stats().rounds > 0, "analysis rounds must still run");
}

#[test]
fn phase_change_reconverges_with_history_decay() {
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .build();
    let ctx = engine.list_context::<i64>(ListKind::Array);

    // Phase 1: lookups dominate.
    for _ in 0..3 {
        for _ in 0..40 {
            let mut l = ctx.create_list();
            for v in 0..200 {
                l.push(v);
            }
            for v in 0..400 {
                l.contains(&v);
            }
        }
        engine.analyze_now();
    }
    assert_eq!(ctx.current_kind(), ListKind::HashArray);

    // Phase 2: pure appends; the hash index becomes dead weight.
    for _ in 0..6 {
        for _ in 0..40 {
            let mut l = ctx.create_list();
            for v in 0..200 {
                l.push(v);
            }
        }
        engine.analyze_now();
    }
    assert_eq!(
        ctx.current_kind(),
        ListKind::Array,
        "decayed history must let the site walk back"
    );
}

#[test]
fn calibrated_models_drive_the_engine() {
    // Calibrate on this machine (quick plan), then select with the result —
    // the full pipeline of the paper's Fig. 1.
    let cfg = builder::BuilderConfig {
        sizes: vec![10, 100, 400, 1000],
        sample: Duration::from_micros(50),
    };
    let models = Models {
        list: builder::build_list_model(&cfg),
        set: builder::build_set_model(&cfg),
        map: builder::build_map_model(&cfg),
    };
    let list_model = models.list.clone();
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .models(models)
        .build();
    let ctx = engine.list_context::<i64>(ListKind::Linked);
    for _ in 0..60 {
        let mut l = ctx.create_list();
        for v in 0..200 {
            l.push(v);
        }
        for v in 0..400 {
            l.contains(&v);
        }
    }
    engine.analyze_now();
    // Each calibration point is the median of nine 50 µs samples, taken
    // while other tests run, which can still misprice a variant, so where
    // the site lands depends on this run's calibration. What does not: the
    // engine puts it exactly where the selection algorithm puts the
    // monitored workload (every instance 200 pushes and 400 probes at size
    // 200) under the calibrated model.
    let monitored = ctx.stats().history_instances;
    assert!(monitored > 0, "the analysis pass saw no monitored instance");
    let mut ops = OpCounters::new();
    ops.add(OpKind::Populate, 200);
    ops.add(OpKind::Contains, 400);
    let profile = WorkloadProfile::new(ops, 200);
    let history =
        ProfileHistogram::from_profiles(std::iter::repeat_n(&profile, monitored as usize));
    let expected = select_variant(
        &list_model,
        &SelectionRule::r_time(),
        ListKind::Linked,
        &history,
    )
    .map_or(ListKind::Linked, |s| s.kind);
    assert_eq!(ctx.current_kind(), expected);
}

#[test]
fn persisted_models_round_trip_through_the_engine() {
    let text = persist::to_text(default_models::set_model());
    let restored: PerformanceModel<SetKind> = persist::from_text(&text).unwrap();
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .models(Models {
            set: restored,
            ..Models::default()
        })
        .build();
    let ctx = engine.set_context::<i64>(SetKind::Chained);
    for _ in 0..60 {
        let mut s = ctx.create_set();
        for v in 0..300 {
            s.insert(v);
        }
        for v in 0..600 {
            s.contains(&v);
        }
    }
    engine.analyze_now();
    assert_eq!(ctx.current_kind(), SetKind::Open(LibraryProfile::Koloboke));
}

#[test]
fn concurrent_sites_adapt_under_contention() {
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .background()
        .build();
    let lookup_site = engine.list_context::<i64>(ListKind::Array);
    let set_site = engine.set_context::<i64>(SetKind::Chained);
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let lists = lookup_site.clone();
            let sets = set_site.clone();
            std::thread::spawn(move || {
                for _ in 0..40 {
                    let mut l = lists.create_list();
                    let mut s = sets.create_set();
                    for v in 0..200 {
                        l.push(v);
                        s.insert(v);
                    }
                    for v in 0..400 {
                        l.contains(&v);
                        s.contains(&v);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Converge: keep a trickle of the same workload flowing while
    // analyzing — rounds only advance with fresh profiles.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline
        && (lookup_site.current_kind() != ListKind::HashArray
            || set_site.current_kind() == SetKind::Chained)
    {
        for _ in 0..8 {
            let mut l = lookup_site.create_list();
            let mut s = set_site.create_set();
            for v in 0..200 {
                l.push(v);
                s.insert(v);
            }
            for v in 0..400 {
                l.contains(&v);
                s.contains(&v);
            }
        }
        engine.analyze_now();
    }
    assert_eq!(lookup_site.current_kind(), ListKind::HashArray);
    assert_ne!(set_site.current_kind(), SetKind::Chained);
}

#[test]
fn full_app_checksums_are_mode_invariant() {
    // Switching variants must never change observable behaviour.
    let app = apps::h2(1);
    let a = run_app(&app, Mode::Original, 99);
    let b = run_app(&app, Mode::FullAdap(SelectionRule::r_time()), 99);
    let c = run_app(&app, Mode::FullAdap(SelectionRule::r_alloc()), 99);
    let d = run_app(&app, Mode::InstanceAdap, 99);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.checksum, c.checksum);
    assert_eq!(a.checksum, d.checksum);
}

#[test]
fn footprint_rule_prefers_compact_layouts() {
    let engine = Switch::builder()
        .rule(SelectionRule::r_footprint())
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .build();
    let ctx = engine.map_context::<i64, i64>(MapKind::Chained);
    for _ in 0..60 {
        let mut m = ctx.create_map();
        for v in 0..200 {
            m.insert(v, v);
        }
        for v in 0..200 {
            m.get(&v);
        }
    }
    engine.analyze_now();
    use collection_switch::collections::HeapSize;
    // Whatever was chosen must actually have a smaller real footprint.
    let mut chosen = ctx.create_map();
    let mut baseline = AnyMap::<i64, i64>::new(MapKind::Chained);
    for v in 0..200 {
        chosen.insert(v, v);
        MapOps::map_insert(&mut baseline, v, v);
    }
    assert!(chosen.heap_bytes() < baseline.heap_bytes());
}
