//! Cold-vs-warm fleet convergence benchmark for crash-safe warm start.
//!
//! ```text
//! cargo run --release -p cs-bench --bin fleet_sweep -- [--quick] [--out PATH]
//! ```
//!
//! Simulates the deployment story behind `cs-state`: a fleet of allocation
//! sites whose profitable variants differ from their declared defaults, run
//! twice on the same workload —
//!
//! 1. **Cold** — a fresh engine that has to discover every switch through
//!    monitoring windows and selection rounds, then saves its selection
//!    state with [`cs_core::Switch::save_state`].
//! 2. **Warm** — a second engine built with
//!    [`warm_start_from`](cs_core::SwitchBuilder::warm_start_from) on that
//!    snapshot, which should resume at the learned variants and reach
//!    steady state with no further switching.
//!
//! *Steady state* is operational, not declarative: the fleet is steady once
//! the site manifest's current variants survive `STEADY_PASSES` consecutive
//! analyze passes unchanged. Ops-to-steady is the cumulative collection op
//! count at the pass where that streak completes; the floor is therefore
//! `STEADY_PASSES` rounds of ops for any run, and the cold run pays extra
//! rounds for every monitoring window and switch it needs.
//!
//! The sweep is a gate: it exits nonzero unless both runs converge, the
//! cold run switches, warm start applies every snapshot site with none
//! quarantined, the warm run resumes the cold run's learned variants, and
//! the warm run converges in no more ops than the cold one.
//!
//! Writes `BENCH_fleet.json` (schema in EXPERIMENTS.md): the fleet
//! manifest, snapshot write stats, per-round convergence traces for both
//! runs, the warm-start report, and the cold/warm ops-to-steady comparison
//! — also when a check fails, so the failing run's traces survive.
//!
//! `--quick` shrinks instances and the round cap to a CI budget; `--out
//! PATH` selects the results file, default `BENCH_fleet.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use cs_bench::{run_sweep, Sweep};
use cs_collections::{ListKind, MapKind, SetKind};
use cs_core::{Switch, WarmStartReport};
use cs_telemetry::Json;

/// Consecutive unchanged analyze passes that define steady state.
const STEADY_PASSES: u32 = 3;

/// One synthetic allocation site of the fleet, with the workload that makes
/// its declared default the wrong choice (or, for the control site, the
/// right one).
struct FleetSite {
    name: &'static str,
    abstraction: &'static str,
    default_kind: &'static str,
    /// Elements per instance.
    size: usize,
    /// Membership probes per element; probes span 125% of the populated
    /// range, so ~20% miss.
    lookups_per_element: usize,
    workload: &'static str,
}

/// The fleet: three scan-heavy sites whose array defaults lose to hashed
/// variants once sizes clear the adaptation thresholds, plus one
/// append/iterate control site whose default is already optimal — warm
/// start must resume the first three *and* leave the fourth alone.
const FLEET: &[FleetSite] = &[
    FleetSite {
        name: "scan-cache",
        abstraction: "list",
        default_kind: "array",
        size: 192,
        lookups_per_element: 2,
        workload: "push + contains-heavy",
    },
    FleetSite {
        name: "dedup-ring",
        abstraction: "set",
        default_kind: "array",
        size: 160,
        lookups_per_element: 2,
        workload: "insert + contains-heavy",
    },
    FleetSite {
        name: "route-index",
        abstraction: "map",
        default_kind: "array",
        size: 160,
        lookups_per_element: 2,
        workload: "insert + get-heavy",
    },
    FleetSite {
        name: "append-log",
        abstraction: "list",
        default_kind: "array",
        size: 64,
        lookups_per_element: 0,
        workload: "push + iterate (control: default already optimal)",
    },
];

/// One analyze pass of the convergence trace.
struct RoundRow {
    round: u32,
    ops_cumulative: u64,
    switches_cumulative: u64,
    kinds: BTreeMap<String, String>,
}

/// Outcome of driving one engine (cold or warm) to steady state.
struct RunTrace {
    converged: bool,
    rounds_to_steady: u32,
    ops_to_steady: u64,
    total_switches: u64,
    /// Manifest right after registration, before any ops — for a warm
    /// engine, the variants the snapshot resumed.
    starting_kinds: BTreeMap<String, String>,
    final_kinds: BTreeMap<String, String>,
    rounds: Vec<RoundRow>,
}

/// Current variant per fleet site, keyed by site name.
fn manifest_kinds(engine: &Switch) -> BTreeMap<String, String> {
    engine
        .site_manifest()
        .into_iter()
        .map(|e| (e.name, e.current_kind))
        .collect()
}

/// Registers every fleet context so the site manifest (and, on a warm
/// engine, the resumed variants) is complete before the first round runs.
fn register_fleet(engine: &Switch) {
    for site in FLEET {
        match site.abstraction {
            "list" => {
                engine.named_list_context::<u64>(ListKind::Array, site.name);
            }
            "set" => {
                engine.named_set_context::<u64>(SetKind::Array, site.name);
            }
            "map" => {
                engine.named_map_context::<u64, u64>(MapKind::Array, site.name);
            }
            _ => unreachable!("fleet table is static"),
        }
    }
}

/// Drives one round of the fleet workload against `engine`, returning the
/// number of collection ops executed. Deterministic: no RNG, misses come
/// from probing 125% of the populated key range.
fn drive_round(engine: &Switch, instances: usize) -> u64 {
    let mut ops: u64 = 0;
    for site in FLEET {
        let probes = site.size * site.lookups_per_element;
        let probe_range = (site.size + site.size / 4) as u64;
        match (site.abstraction, site.name) {
            ("list", name) => {
                let ctx = engine.named_list_context::<u64>(ListKind::Array, name);
                for _ in 0..instances {
                    let mut list = ctx.create_list();
                    for v in 0..site.size as u64 {
                        list.push(v);
                        ops += 1;
                    }
                    for p in 0..probes as u64 {
                        list.contains(&(p * 7 % probe_range));
                        ops += 1;
                    }
                    if site.lookups_per_element == 0 {
                        let mut n = 0u64;
                        list.for_each(|_| n += 1);
                        ops += n;
                    }
                }
            }
            ("set", name) => {
                let ctx = engine.named_set_context::<u64>(SetKind::Array, name);
                for _ in 0..instances {
                    let mut set = ctx.create_set();
                    for v in 0..site.size as u64 {
                        set.insert(v);
                        ops += 1;
                    }
                    for p in 0..probes as u64 {
                        set.contains(&(p * 7 % probe_range));
                        ops += 1;
                    }
                }
            }
            ("map", name) => {
                let ctx = engine.named_map_context::<u64, u64>(MapKind::Array, name);
                for _ in 0..instances {
                    let mut map = ctx.create_map();
                    for v in 0..site.size as u64 {
                        map.insert(v, v.wrapping_mul(3));
                        ops += 1;
                    }
                    for p in 0..probes as u64 {
                        map.get(&(p * 7 % probe_range));
                        ops += 1;
                    }
                }
            }
            _ => unreachable!("fleet table is static"),
        }
    }
    ops
}

/// Runs the fleet workload on `engine` until the manifest survives
/// [`STEADY_PASSES`] analyze passes unchanged (or `max_rounds` expires).
fn run_to_steady(label: &str, engine: &Switch, instances: usize, max_rounds: u32) -> RunTrace {
    // Registering every context up front makes the baseline manifest the
    // true starting state — for a warm engine, the resumed variants — so
    // round 1's diff counts adaptation switches, not registrations.
    register_fleet(engine);
    let mut kinds = manifest_kinds(engine);
    let starting_kinds = kinds.clone();
    let mut ops: u64 = 0;
    let mut switches: u64 = 0;
    let mut streak: u32 = 0;
    let mut rounds = Vec::new();
    let mut steady_at: Option<(u32, u64)> = None;

    for round in 1..=max_rounds {
        ops += drive_round(engine, instances);
        engine.analyze_now();
        let now = manifest_kinds(engine);
        let changed = now
            .iter()
            .filter(|(name, kind)| kinds.get(*name) != Some(kind))
            .count() as u64;
        switches += changed;
        streak = if changed == 0 { streak + 1 } else { 0 };
        kinds = now;
        rounds.push(RoundRow {
            round,
            ops_cumulative: ops,
            switches_cumulative: switches,
            kinds: kinds.clone(),
        });
        println!(
            "# {label} round {round}: {ops} ops, {changed} switch(es) this pass, streak {streak}/{STEADY_PASSES}"
        );
        if streak >= STEADY_PASSES {
            steady_at = Some((round, ops));
            break;
        }
    }

    let (rounds_to_steady, ops_to_steady) = steady_at.unwrap_or((max_rounds, ops));
    RunTrace {
        converged: steady_at.is_some(),
        rounds_to_steady,
        ops_to_steady,
        total_switches: switches,
        starting_kinds,
        final_kinds: kinds,
        rounds,
    }
}

fn kinds_to_json(kinds: &BTreeMap<String, String>) -> Json {
    kinds.iter().fold(Json::object(), |doc, (name, kind)| {
        doc.field(name.as_str(), kind.as_str())
    })
}

fn trace_to_json(trace: &RunTrace) -> Json {
    Json::object()
        .field("converged", trace.converged)
        .field("rounds_to_steady", trace.rounds_to_steady)
        .field("ops_to_steady", trace.ops_to_steady)
        .field("total_switches", trace.total_switches)
        .field("starting_kinds", kinds_to_json(&trace.starting_kinds))
        .field("final_kinds", kinds_to_json(&trace.final_kinds))
        .field(
            "rounds",
            Json::Array(
                trace
                    .rounds
                    .iter()
                    .map(|r| {
                        Json::object()
                            .field("round", r.round)
                            .field("ops_cumulative", r.ops_cumulative)
                            .field("switches_cumulative", r.switches_cumulative)
                            .field("kinds", kinds_to_json(&r.kinds))
                    })
                    .collect(),
            ),
        )
}

fn warm_report_to_json(report: &WarmStartReport) -> Json {
    Json::object()
        .field("source", report.source.as_str())
        .field("sites_in_snapshot", report.sites_in_snapshot)
        .field("models_in_snapshot", report.models_in_snapshot)
        .field("applied", report.applied)
        .field("rejected_stale", report.rejected_stale)
        .field("rejected_unknown", report.rejected_unknown)
        .field("unclaimed", report.unclaimed)
        .field("records_loaded", report.records_loaded)
        .field("records_quarantined", report.records_quarantined)
        .field("duplicates_dropped", report.duplicates_dropped)
        .field("hit_ratio", report.hit_ratio())
}

fn main() -> ExitCode {
    run_sweep("fleet_sweep", std::env::args().skip(1), sweep)
}

fn sweep(sweep: &mut Sweep) -> Json {
    let (instances, max_rounds) = if sweep.quick() { (16, 24) } else { (48, 40) };
    let snapshot_path: PathBuf = std::env::temp_dir().join("cs_fleet_sweep.state.css");

    println!(
        "# fleet_sweep: {} sites, {instances} instances/round, steady = {STEADY_PASSES} unchanged passes, cap {max_rounds} rounds",
        FLEET.len()
    );

    // --- Cold run: learn the fleet from scratch, then snapshot it. -------
    let cold_engine = Switch::builder().build();
    let cold = run_to_steady("cold", &cold_engine, instances, max_rounds);
    sweep.check(cold.converged, || {
        format!("cold run failed to reach steady state within {max_rounds} rounds")
    });
    sweep.check(cold.total_switches > 0, || {
        "cold run never switched — the fleet workload no longer exercises adaptation".into()
    });
    let write = cold_engine
        .save_state(&snapshot_path)
        .expect("write fleet snapshot");
    println!(
        "# snapshot: {} records, {} bytes -> {}",
        write.records,
        write.bytes,
        write.path.display()
    );

    // --- Warm run: same fleet, resumed from the snapshot. ----------------
    let warm_engine = Switch::builder().warm_start_from(&snapshot_path).build();
    let warm = run_to_steady("warm", &warm_engine, instances, max_rounds);
    let report = warm_engine
        .warm_start_report()
        .expect("warm engine must carry a warm-start report");

    // The warm engine registers the exact fleet the snapshot describes:
    // every site must be claimed and applied, nothing stale or unknown.
    sweep.check(report.applied == FLEET.len() as u64, || {
        format!(
            "warm start applied {}/{} sites: {report:?}",
            report.applied,
            FLEET.len()
        )
    });
    sweep.check(report.records_quarantined == 0, || {
        format!(
            "clean snapshot had {} records quarantined",
            report.records_quarantined
        )
    });
    sweep.check(warm.starting_kinds == cold.final_kinds, || {
        format!(
            "warm engine did not resume at the cold run's learned variants: \
             started at {:?}, cold ended at {:?}",
            warm.starting_kinds, cold.final_kinds
        )
    });
    sweep.check(
        warm.converged && warm.ops_to_steady <= cold.ops_to_steady,
        || {
            format!(
                "warm start converged no faster than cold: warm {} ops vs cold {} ops",
                warm.ops_to_steady, cold.ops_to_steady
            )
        },
    );

    let ops_saved = cold.ops_to_steady.saturating_sub(warm.ops_to_steady);
    let ratio = warm.ops_to_steady as f64 / cold.ops_to_steady as f64;
    println!(
        "# cold: {} ops / {} rounds / {} switches; warm: {} ops / {} rounds / {} switches",
        cold.ops_to_steady,
        cold.rounds_to_steady,
        cold.total_switches,
        warm.ops_to_steady,
        warm.rounds_to_steady,
        warm.total_switches
    );
    println!("# warm start saves {ops_saved} ops to steady state ({ratio:.2}x of cold)");
    let _ = std::fs::remove_file(&snapshot_path);

    Json::object()
        .field("steady_passes", STEADY_PASSES)
        .field("max_rounds", max_rounds)
        .field("instances_per_round", instances)
        .field(
            "fleet",
            Json::Array(
                FLEET
                    .iter()
                    .map(|s| {
                        Json::object()
                            .field("site", s.name)
                            .field("abstraction", s.abstraction)
                            .field("default_kind", s.default_kind)
                            .field("instance_size", s.size)
                            .field("lookups_per_element", s.lookups_per_element)
                            .field("workload", s.workload)
                    })
                    .collect(),
            ),
        )
        .field(
            "snapshot",
            Json::object()
                .field("records", write.records)
                .field("bytes", write.bytes)
                .field("write_elapsed_nanos", write.elapsed_nanos),
        )
        .field("cold", trace_to_json(&cold))
        .field(
            "warm",
            trace_to_json(&warm).field("warm_start", warm_report_to_json(&report)),
        )
        .field(
            "warm_vs_cold",
            Json::object()
                .field("ops_to_steady_cold", cold.ops_to_steady)
                .field("ops_to_steady_warm", warm.ops_to_steady)
                .field("ops_saved", ops_saved)
                .field("warm_over_cold_ratio", ratio)
                .field(
                    "rounds_saved",
                    cold.rounds_to_steady.saturating_sub(warm.rounds_to_steady),
                ),
        )
}
