//! Deterministic fault-injection harness for the engine's guardrail layer.
//!
//! Four failure scenarios, each driven end-to-end through the public API:
//!
//! 1. **Inverted model** — a model that claims `LinkedList` is two orders of
//!    magnitude faster than `ArrayList` on a lookup-heavy site. The switch it
//!    provokes makes the workload measurably slower, so post-switch
//!    verification must roll it back and quarantine the candidate.
//! 2. **Panicking analyzer** — a failpoint panics inside every analysis
//!    pass. The host must keep running; after the failure allowance the
//!    engine enters degraded mode (monitoring and adaptation freeze).
//! 3. **Corrupt model directory** — garbage model files must not abort
//!    `Switch` construction; the engine falls back to the built-in analytic
//!    models (recording the substitutions) and still adapts.
//! 4. **Phase-flipping workload** — an adversarial workload that changes its
//!    profile every analysis round. The per-site cooldown must bound the
//!    transition rate even with verification disabled.
//! 5. **Poisoned warm start** — a selection-state snapshot referencing
//!    unknown sites, unknown variants, or sites whose declared default has
//!    drifted since the snapshot. Each bad record must degrade *its* site
//!    to a cold start (with a [`cs_core::WarmStartSiteEvent`] recorded)
//!    while every valid record still applies; a missing snapshot must mean
//!    a plain cold start, never an error, and a temp file left by a writer
//!    killed mid-save is swept when the next process warm-starts.

use std::path::PathBuf;

use cs_collections::ListKind;
use cs_core::{
    EngineEvent, GuardrailConfig, ListContext, SelectionRule, Switch, WarmStartSiteOutcome,
};
use cs_model::{CostDimension, PerformanceModel, Polynomial, VariantCostModel};
use cs_profile::OpKind;

/// A list model with a flat per-op time cost for every variant.
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

/// One monitoring round of a lookup-heavy list workload: enough instances to
/// satisfy the default window, each scanning the list repeatedly.
fn lookup_heavy_round(ctx: &ListContext<i64>) {
    scan_round(ctx, 120, 256);
}

/// Like [`lookup_heavy_round`] with long scans, where the linked variant is
/// unambiguously (~2x) slower in wall-clock time than the array variant —
/// the signal post-switch verification measures. Shorter scans compress the
/// measured per-op ratio toward 1 (fixed timer overhead dominates cheap
/// ops), which would make the rollback assertion timing-sensitive.
fn slow_scan_round(ctx: &ListContext<i64>) {
    scan_round(ctx, 60, 1024);
}

fn scan_round(ctx: &ListContext<i64>, instances: usize, size: i64) {
    for _ in 0..instances {
        let mut list = ctx.create_list();
        for v in 0..size {
            list.push(v);
        }
        for v in 0..size {
            assert!(list.contains(&v));
        }
    }
}

/// One monitoring round of a push/pop-only workload (no lookups), which the
/// default time model scores in favour of the plain array variant.
fn push_heavy_round(ctx: &ListContext<i64>) {
    for _ in 0..120 {
        let mut list = ctx.create_list();
        for v in 0..150 {
            list.push(v);
        }
        while list.pop().is_some() {}
    }
}

fn count_events(engine: &Switch, pred: impl Fn(&EngineEvent) -> bool) -> usize {
    engine.event_log().iter().filter(|e| pred(e)).count()
}

#[test]
fn inverted_model_is_rolled_back_and_quarantined() {
    // Array is claimed to cost 100 ns/op, Linked 1 ns/op: a predicted 100x
    // improvement that reality will contradict. The other variants are
    // priced out so the engine can only try the bad candidate.
    let models = cs_core::Models {
        list: flat_list_model(&[
            (ListKind::Array, 100.0),
            (ListKind::Linked, 1.0),
            (ListKind::HashArray, 10_000.0),
            (ListKind::Adaptive, 10_000.0),
        ]),
        ..Default::default()
    };
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(models)
        .build();
    let ctx = engine.named_list_context::<i64>(ListKind::Array, "faults/inverted");

    // Round 1: baseline under Array; the model provokes a switch to Linked.
    slow_scan_round(&ctx);
    engine.analyze_now();
    assert_eq!(
        ctx.current_kind(),
        ListKind::Linked,
        "the inverted model must first provoke the bad switch"
    );
    assert_eq!(engine.transition_log().len(), 1);

    // Round 2: same workload under Linked. Measured per-op time regresses
    // far beyond the predicted improvement, so verification rolls back.
    slow_scan_round(&ctx);
    engine.analyze_now();
    assert_eq!(
        ctx.current_kind(),
        ListKind::Array,
        "verification must restore the pre-switch variant"
    );
    assert_eq!(ctx.stats().rollbacks, 1);
    assert_eq!(
        count_events(&engine, |e| matches!(e, EngineEvent::Rollback(_))),
        1
    );
    let quarantines: Vec<_> = engine
        .event_log()
        .into_iter()
        .filter_map(|e| match e {
            EngineEvent::Quarantine(q) => Some(q),
            _ => None,
        })
        .collect();
    assert_eq!(quarantines.len(), 1);
    assert_eq!(quarantines[0].candidate, "linked");
    assert_eq!(quarantines[0].strikes, 1);

    // Round 3: the model still prefers Linked, but the candidate is
    // quarantined — the site must stay on the restored variant.
    slow_scan_round(&ctx);
    engine.analyze_now();
    assert_eq!(
        ctx.current_kind(),
        ListKind::Array,
        "a quarantined candidate must not be re-selected"
    );
    assert_eq!(engine.transition_log().len(), 1, "no new transition");

    // The health summary tells the same story without trawling the log.
    let health = engine.health();
    assert!(!health.degraded);
    assert_eq!(health.contexts, 1);
    assert_eq!(health.analysis_passes, 3);
    assert_eq!(health.transitions_used, 1);
    assert_eq!(health.analyzer_panics, 0);
    assert_eq!(health.events_dropped, 0);
    assert_eq!(health.events_recorded, engine.event_log().len() as u64);
    assert!(health.profiles_ingested > 0, "monitored instances reported");
}

#[test]
fn panicking_analyzer_degrades_instead_of_crashing() {
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .failpoint(|pass| panic!("injected failure in pass {pass}"))
        .build();
    let ctx = engine.list_context::<i64>(ListKind::Array);

    // The host keeps driving its workload while every analysis pass dies.
    // Default allowance is 3 consecutive failures.
    for _ in 0..3 {
        lookup_heavy_round(&ctx);
        engine.analyze_now();
    }

    assert!(engine.is_degraded(), "failure allowance exhausted");
    assert_eq!(
        count_events(&engine, |e| matches!(e, EngineEvent::AnalyzerPanic(_))),
        3
    );
    assert_eq!(
        count_events(&engine, |e| matches!(e, EngineEvent::DegradedEntered(_))),
        1
    );
    let panic_event = engine
        .event_log()
        .into_iter()
        .find_map(|e| match e {
            EngineEvent::AnalyzerPanic(p) => Some(p),
            _ => None,
        })
        .expect("panic event recorded");
    assert!(panic_event.message.contains("injected failure"));

    // Degraded mode: the site froze on its last-known-good variant and
    // monitoring is disabled, but the host can still create and use
    // collections.
    assert_eq!(ctx.current_kind(), ListKind::Array);
    let mut list = ctx.create_list();
    assert!(!list.is_monitored(), "degraded mode disables monitoring");
    list.push(7);
    assert!(list.contains(&7));

    // Further passes are no-ops rather than fresh panics.
    let events_before = engine.event_log().len();
    engine.analyze_now();
    assert_eq!(engine.event_log().len(), events_before);

    // health() is the triage surface for exactly this scenario: one call
    // shows the freeze, the lifetime panic count, and that nothing was
    // silently lost on the way down.
    let health = engine.health();
    assert!(health.degraded);
    assert_eq!(health.analyzer_panics, 3);
    assert_eq!(health.analysis_passes, 3, "degraded passes do not count");
    assert_eq!(health.transitions_used, 0);
    assert_eq!(health.events_dropped, 0);
    assert_eq!(health.events_recorded, 4, "3 panics + 1 degraded-entered");
    assert!(health.to_string().starts_with("DEGRADED"));
}

#[test]
fn corrupt_model_directory_falls_back_to_analytic_models() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cs_corrupt_models");
    std::fs::create_dir_all(&dir).expect("create temp model dir");
    // Unparsable garbage, a file that parses numerically but carries a NaN
    // coefficient, and a missing third file: all three must fall back.
    std::fs::write(dir.join("lists.model"), "this is not a model\n").unwrap();
    std::fs::write(
        dir.join("sets.model"),
        "model set\nvariant array\ntime middle poly 1.0 NaN\n",
    )
    .unwrap();
    let _ = std::fs::remove_file(dir.join("maps.model"));

    // Construction must succeed; the corruption surfaces as events, not
    // as an error or a panic.
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models_from_dir(&dir)
        .build();
    let fallbacks: Vec<_> = engine
        .event_log()
        .into_iter()
        .filter_map(|e| match e {
            EngineEvent::ModelFallback(f) => Some(f),
            _ => None,
        })
        .collect();
    assert_eq!(fallbacks.len(), 3, "every corrupt file is substituted");
    let files: Vec<&str> = fallbacks.iter().map(|f| f.file.as_str()).collect();
    assert!(files.contains(&"lists.model"));
    assert!(files.contains(&"sets.model"));
    assert!(files.contains(&"maps.model"));

    // The analytic fallback models still drive adaptation: a lookup-heavy
    // site leaves the plain array variant.
    let ctx = engine.list_context::<i64>(ListKind::Array);
    lookup_heavy_round(&ctx);
    engine.analyze_now();
    assert_ne!(ctx.current_kind(), ListKind::Array);
    assert!(!engine.transition_log().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cooldown_bounds_transitions_under_phase_flipping() {
    const ROUNDS: u64 = 12;
    const COOLDOWN: u64 = 4;
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .guardrails(
            GuardrailConfig::default()
                .verify_tolerance(f64::INFINITY) // isolate the cooldown
                .cooldown_rounds(COOLDOWN),
        )
        .build();
    let ctx = engine.list_context::<i64>(ListKind::Array);

    // The workload flips its profile every analysis round, inviting the
    // engine to bounce between variants as fast as it is allowed to.
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            lookup_heavy_round(&ctx);
        } else {
            push_heavy_round(&ctx);
        }
        engine.analyze_now();
    }

    let transitions = engine.transition_log().len() as u64;
    assert!(
        transitions >= 1,
        "the flipping workload must trigger adaptation"
    );
    assert!(
        transitions <= ROUNDS.div_ceil(COOLDOWN),
        "cooldown of {COOLDOWN} rounds must bound {ROUNDS} rounds to at most \
         {} transitions, saw {transitions}",
        ROUNDS.div_ceil(COOLDOWN)
    );
}

#[test]
fn warm_start_round_trips_learned_state_across_engines() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cs_warm_roundtrip.css");

    // First life: a lookup-heavy site learns its way off the array variant.
    let first = Switch::builder().rule(SelectionRule::r_time()).build();
    let ctx = first.named_list_context::<i64>(ListKind::Array, "orders");
    lookup_heavy_round(&ctx);
    first.analyze_now();
    let learned = ctx.current_kind();
    assert_ne!(learned, ListKind::Array, "site must have adapted");
    first.save_state(&path).expect("snapshot writes");
    drop(first);

    // Second life: the same site resumes the learned variant before any
    // workload runs — no re-learning burn-in.
    let second = Switch::builder()
        .rule(SelectionRule::r_time())
        .warm_start_from(&path)
        .build();
    let ctx = second.named_list_context::<i64>(ListKind::Array, "orders");
    assert_eq!(
        ctx.current_kind(),
        learned,
        "warm start installs the learned variant"
    );
    let report = second
        .warm_start_report()
        .expect("warm-started engine has a report");
    assert_eq!(report.applied, 1);
    assert_eq!(report.rejected_stale, 0);
    assert_eq!(report.rejected_unknown, 0);
    assert_eq!(report.records_quarantined, 0);
    assert_eq!(
        count_events(&second, |e| matches!(e, EngineEvent::WarmStart(_))),
        1
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn poisoned_warm_start_degrades_per_site_only() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cs_warm_poisoned.css");

    fn site_record(name: &str, default_kind: &str, current_kind: &str) -> cs_state::SiteRecord {
        cs_state::SiteRecord {
            name: name.to_owned(),
            abstraction: "list".to_owned(),
            default_kind: default_kind.to_owned(),
            current_kind: current_kind.to_owned(),
            rounds: 5,
            switches: 1,
            history_instances: 500,
        }
    }

    // A snapshot mixing one valid record with every per-site failure mode:
    // a default-variant fingerprint that drifted, a variant this build does
    // not know, and a site that never registers in the second life.
    let snapshot = cs_state::Snapshot {
        meta: None,
        sites: vec![
            site_record("good", "array", "hasharray"),
            site_record("drifted", "linked", "hasharray"),
            site_record("from-the-future", "array", "gpu-resident-list"),
            site_record("deleted-site", "array", "hasharray"),
        ],
        models: Vec::new(),
        profiles: Vec::new(),
    };
    cs_state::write_atomic(&path, &snapshot).expect("snapshot writes");

    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .warm_start_from(&path)
        .build();
    // "drifted" declares default `array` live, but the snapshot fingerprint
    // says `linked`: the record must be refused for this site only.
    let good = engine.named_list_context::<i64>(ListKind::Array, "good");
    let drifted = engine.named_list_context::<i64>(ListKind::Array, "drifted");
    let future = engine.named_list_context::<i64>(ListKind::Array, "from-the-future");

    assert_eq!(
        good.current_kind(),
        ListKind::HashArray,
        "valid record applies"
    );
    assert_eq!(
        drifted.current_kind(),
        ListKind::Array,
        "stale fingerprint cold-starts"
    );
    assert_eq!(
        future.current_kind(),
        ListKind::Array,
        "unknown variant cold-starts"
    );

    let report = engine.warm_start_report().expect("report exists");
    assert_eq!(report.sites_in_snapshot, 4);
    assert_eq!(report.applied, 1);
    assert_eq!(report.rejected_stale, 1);
    assert_eq!(report.rejected_unknown, 1);
    assert_eq!(
        report.unclaimed, 1,
        "the deleted site's record stays unclaimed"
    );
    assert!((report.hit_ratio() - 0.25).abs() < 1e-12);

    // Every outcome is on the event log, tagged per site.
    let outcomes: Vec<(String, WarmStartSiteOutcome)> = engine
        .event_log()
        .into_iter()
        .filter_map(|e| match e {
            EngineEvent::WarmStartSite(s) => Some((s.context_name, s.outcome)),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes.contains(&("good".to_owned(), WarmStartSiteOutcome::Applied)));
    assert!(outcomes.contains(&("drifted".to_owned(), WarmStartSiteOutcome::StaleFingerprint)));
    assert!(outcomes.contains(&(
        "from-the-future".to_owned(),
        WarmStartSiteOutcome::UnknownKind
    )));

    // The degraded sites still adapt normally from their cold start.
    lookup_heavy_round(&drifted);
    engine.analyze_now();
    assert_ne!(drifted.current_kind(), ListKind::Array);

    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_start_sweeps_a_crashed_writers_temp_file() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cs_warm_sweep.css");
    let snapshot = cs_state::Snapshot {
        meta: None,
        sites: vec![cs_state::SiteRecord {
            name: "orders".to_owned(),
            abstraction: "list".to_owned(),
            default_kind: "array".to_owned(),
            current_kind: "hasharray".to_owned(),
            rounds: 5,
            switches: 1,
            history_instances: 500,
        }],
        models: Vec::new(),
        profiles: Vec::new(),
    };
    cs_state::write_atomic(&path, &snapshot).expect("snapshot writes");
    // What a writer killed between its temp write and its rename leaves.
    let stale = path.with_file_name("cs_warm_sweep.css.tmp-4242-0");
    std::fs::write(&stale, b"half a snapshot").expect("stale temp writes");

    let engine = Switch::builder().warm_start_from(&path).build();
    assert!(!stale.exists(), "warm start sweeps the stale temp");
    let ctx = engine.named_list_context::<i64>(ListKind::Array, "orders");
    assert_eq!(
        ctx.current_kind(),
        ListKind::HashArray,
        "the record still applies"
    );
    assert_eq!(
        engine.warm_start_report().expect("report exists").applied,
        1
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_snapshot_is_a_cold_start_not_an_error() {
    let engine = Switch::builder()
        .warm_start_from("/nonexistent/cs-state/fleet.css")
        .build();
    assert!(
        engine.warm_start_report().is_none(),
        "no warm state without a snapshot"
    );
    let notes: Vec<String> = engine
        .event_log()
        .into_iter()
        .filter_map(|e| match e {
            EngineEvent::WarmStart(w) => Some(w.note),
            _ => None,
        })
        .collect();
    assert_eq!(notes.len(), 1, "the miss is recorded, not raised");
    assert!(
        notes[0].contains("cold start"),
        "note explains: {}",
        notes[0]
    );

    // The engine is fully functional.
    let ctx = engine.list_context::<i64>(ListKind::Array);
    lookup_heavy_round(&ctx);
    engine.analyze_now();
    assert_ne!(ctx.current_kind(), ListKind::Array);
}
