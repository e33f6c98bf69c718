//! Executes a synthetic application under the paper's three configurations
//! (Table 5: Original, FullAdap, InstanceAdap).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cs_collections::{AnyList, AnyMap, AnySet, ListKind, MapKind, SetKind};
use cs_core::{EngineEvent, SelectionRule, Switch, TransitionEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{DriveList, DriveMap, DriveSet};
use crate::site::{AppSpec, SiteKind, SiteSpec};

/// How often (in created instances) the FullAdap runner triggers an
/// analysis pass — the deterministic surrogate for the paper's 50 ms
/// background monitoring rate, so runs are reproducible across machines.
const ANALYZE_EVERY: usize = 128;

/// The three configurations compared in the paper's Table 5.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Every site instantiates its declared default variant, unmonitored.
    Original,
    /// Every site runs through a CollectionSwitch allocation context with
    /// this selection rule.
    FullAdap(SelectionRule),
    /// Every site unconditionally instantiates the size-adaptive variant.
    InstanceAdap,
}

impl Mode {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Mode::Original => "original".into(),
            Mode::FullAdap(rule) => format!("fulladap({})", rule.name()),
            Mode::InstanceAdap => "instanceadap".into(),
        }
    }
}

/// Per-site outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteResult {
    /// Site label.
    pub name: String,
    /// Peak bytes of the site's live set.
    pub peak_bytes: usize,
    /// Cumulative bytes allocated by the site's instances.
    pub allocated_bytes: u64,
    /// Variant the site ended on (differs from the default only under
    /// FullAdap).
    pub final_kind: String,
}

/// Outcome of one application run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Application name.
    pub app: String,
    /// Mode label.
    pub mode: String,
    /// Wall-clock execution time (the paper's `T` column).
    pub wall_time: Duration,
    /// Peak tracked collection bytes, summed over sites' live sets (the
    /// paper's `M` column; tracked collection heap rather than process RSS).
    pub peak_bytes: usize,
    /// Cumulative bytes allocated by all collection instances.
    pub allocated_bytes: u64,
    /// Transitions performed (empty outside FullAdap).
    pub transitions: Vec<TransitionEvent>,
    /// Switches undone by post-switch verification (zero outside FullAdap).
    pub rollbacks: u64,
    /// Candidates quarantined after a failed verification (zero outside
    /// FullAdap).
    pub quarantines: u64,
    /// Per-site details.
    pub sites: Vec<SiteResult>,
    /// Operation checksum — identical across modes for the same seed, which
    /// both prevents dead-code elimination and asserts behavioural equality.
    pub checksum: u64,
}

#[derive(Default)]
struct SiteMetrics {
    peak_bytes: usize,
    allocated_bytes: u64,
    checksum: u64,
}

/// Runs the standard per-instance script against a list.
fn drive_list_instance<L: DriveList<i64>>(
    c: &mut L,
    size: usize,
    spec: &SiteSpec,
    rng: &mut StdRng,
    checksum: &mut u64,
) {
    for k in 0..size as i64 {
        c.push(k);
    }
    let lookups = spec.mix.lookups(size);
    let key_span = (size.max(1) as f64 / (1.0 - spec.mix.miss_rate).max(0.05)) as i64;
    for _ in 0..lookups {
        let key = rng.gen_range(0..key_span.max(1));
        *checksum += u64::from(c.contains(&key));
    }
    for _ in 0..spec.mix.iterates {
        *checksum += c.iterate() as u64;
    }
    for _ in 0..spec.mix.middles {
        if !c.is_empty() {
            let mid = c.len() / 2;
            c.insert_at(mid, -1);
            *checksum += c.remove_at(mid).unsigned_abs();
        }
    }
}

fn drive_set_instance<S: DriveSet<i64>>(
    c: &mut S,
    size: usize,
    spec: &SiteSpec,
    rng: &mut StdRng,
    checksum: &mut u64,
) {
    for k in 0..size as i64 {
        c.insert(k);
    }
    let lookups = spec.mix.lookups(size);
    let key_span = (size.max(1) as f64 / (1.0 - spec.mix.miss_rate).max(0.05)) as i64;
    for _ in 0..lookups {
        let key = rng.gen_range(0..key_span.max(1));
        *checksum += u64::from(c.contains(&key));
    }
    for _ in 0..spec.mix.iterates {
        *checksum += c.iterate() as u64;
    }
    for _ in 0..spec.mix.middles {
        let key = (size / 2) as i64;
        *checksum += u64::from(c.remove(&key));
        c.insert(key);
    }
}

fn drive_map_instance<M: DriveMap<i64, i64>>(
    c: &mut M,
    size: usize,
    spec: &SiteSpec,
    rng: &mut StdRng,
    checksum: &mut u64,
) {
    for k in 0..size as i64 {
        c.insert(k, k.wrapping_mul(3));
    }
    let lookups = spec.mix.lookups(size);
    let key_span = (size.max(1) as f64 / (1.0 - spec.mix.miss_rate).max(0.05)) as i64;
    for _ in 0..lookups {
        let key = rng.gen_range(0..key_span.max(1));
        *checksum += u64::from(c.get(&key));
    }
    for _ in 0..spec.mix.iterates {
        *checksum += c.iterate() as u64;
    }
    for _ in 0..spec.mix.middles {
        let key = (size / 2) as i64;
        *checksum += c.remove(&key).map_or(0, |v| v.unsigned_abs());
        c.insert(key, key);
    }
}

macro_rules! run_site_loop {
    ($spec:expr, $rng:expr, $tick:expr, $make:expr, $drive:ident) => {{
        let mut metrics = SiteMetrics::default();
        let mut live = VecDeque::with_capacity($spec.retained + 1);
        let mut live_bytes = 0usize;
        for _ in 0..$spec.instances {
            $tick();
            let size = $spec.sizes.sample($rng);
            let mut c = $make();
            $drive(&mut c, size, $spec, $rng, &mut metrics.checksum);
            let bytes = c.heap_bytes();
            live_bytes += bytes;
            live.push_back((c, bytes));
            if live.len() > $spec.retained {
                let (old, old_bytes) = live.pop_front().expect("nonempty");
                live_bytes -= old_bytes;
                metrics.allocated_bytes += old.allocated_bytes();
                drop(old);
            }
            metrics.peak_bytes = metrics.peak_bytes.max(live_bytes);
        }
        for (c, _) in live {
            metrics.allocated_bytes += c.allocated_bytes();
        }
        metrics
    }};
}

fn run_site(
    spec: &SiteSpec,
    mode: &Mode,
    engine: Option<&Switch>,
    rng: &mut StdRng,
    instances_done: &mut usize,
) -> (SiteMetrics, String) {
    let mut count_base = *instances_done;
    let mut local = 0usize;
    let mut tick = || {
        local += 1;
        if let Some(engine) = engine {
            if (count_base + local).is_multiple_of(ANALYZE_EVERY) {
                engine.analyze_now();
            }
        }
    };

    let out = match (spec.kind, mode) {
        (SiteKind::List(default), Mode::Original) => {
            let metrics = run_site_loop!(
                spec,
                rng,
                tick,
                || AnyList::<i64>::new(default),
                drive_list_instance
            );
            (metrics, default.to_string())
        }
        (SiteKind::List(_), Mode::InstanceAdap) => {
            let metrics = run_site_loop!(
                spec,
                rng,
                tick,
                || AnyList::<i64>::new(ListKind::Adaptive),
                drive_list_instance
            );
            (metrics, ListKind::Adaptive.to_string())
        }
        (SiteKind::List(default), Mode::FullAdap(_)) => {
            let ctx = engine
                .expect("FullAdap requires an engine")
                .named_list_context::<i64>(default, spec.name.clone());
            let metrics =
                run_site_loop!(spec, rng, tick, || ctx.create_list(), drive_list_instance);
            (metrics, ctx.current_kind().to_string())
        }
        (SiteKind::Set(default), Mode::Original) => {
            let metrics = run_site_loop!(
                spec,
                rng,
                tick,
                || AnySet::<i64>::new(default),
                drive_set_instance
            );
            (metrics, default.to_string())
        }
        (SiteKind::Set(_), Mode::InstanceAdap) => {
            let metrics = run_site_loop!(
                spec,
                rng,
                tick,
                || AnySet::<i64>::new(SetKind::Adaptive),
                drive_set_instance
            );
            (metrics, SetKind::Adaptive.to_string())
        }
        (SiteKind::Set(default), Mode::FullAdap(_)) => {
            let ctx = engine
                .expect("FullAdap requires an engine")
                .named_set_context::<i64>(default, spec.name.clone());
            let metrics = run_site_loop!(spec, rng, tick, || ctx.create_set(), drive_set_instance);
            (metrics, ctx.current_kind().to_string())
        }
        (SiteKind::Map(default), Mode::Original) => {
            let metrics = run_site_loop!(
                spec,
                rng,
                tick,
                || AnyMap::<i64, i64>::new(default),
                drive_map_instance
            );
            (metrics, default.to_string())
        }
        (SiteKind::Map(_), Mode::InstanceAdap) => {
            let metrics = run_site_loop!(
                spec,
                rng,
                tick,
                || AnyMap::<i64, i64>::new(MapKind::Adaptive),
                drive_map_instance
            );
            (metrics, MapKind::Adaptive.to_string())
        }
        (SiteKind::Map(default), Mode::FullAdap(_)) => {
            let ctx = engine
                .expect("FullAdap requires an engine")
                .named_map_context::<i64, i64>(default, spec.name.clone());
            let metrics = run_site_loop!(spec, rng, tick, || ctx.create_map(), drive_map_instance);
            (metrics, ctx.current_kind().to_string())
        }
    };
    count_base += local;
    *instances_done = count_base;
    out
}

/// Runs `app` under `mode` with a deterministic seed.
///
/// Sites execute in specification order; under FullAdap an analysis pass
/// runs every `ANALYZE_EVERY` (128) created instances. The reported peak is
/// the sum of per-site live-set peaks — the app's combined collection working
/// set (sites of a real application hold their live sets concurrently).
///
/// # Examples
///
/// ```
/// use cs_workloads::{apps, runner::{run_app, Mode}};
///
/// let app = apps::h2(1);
/// let r = run_app(&app, Mode::Original, 7);
/// assert!(r.peak_bytes > 0);
/// assert!(r.checksum > 0);
/// ```
pub fn run_app(app: &AppSpec, mode: Mode, seed: u64) -> RunResult {
    let engine = match &mode {
        Mode::FullAdap(rule) => Some(Switch::builder().rule(rule.clone()).build()),
        _ => None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sites = Vec::with_capacity(app.sites.len());
    let mut instances_done = 0usize;

    let start = Instant::now();
    let mut checksum = 0u64;
    let mut peak = 0usize;
    let mut allocated = 0u64;
    for spec in &app.sites {
        let (metrics, final_kind) =
            run_site(spec, &mode, engine.as_ref(), &mut rng, &mut instances_done);
        checksum = checksum.wrapping_add(metrics.checksum);
        peak += metrics.peak_bytes;
        allocated += metrics.allocated_bytes;
        sites.push(SiteResult {
            name: spec.name.clone(),
            peak_bytes: metrics.peak_bytes,
            allocated_bytes: metrics.allocated_bytes,
            final_kind,
        });
    }
    let wall_time = start.elapsed();

    let (transitions, rollbacks, quarantines) = match engine {
        Some(engine) => {
            let mut rollbacks = 0u64;
            let mut quarantines = 0u64;
            for event in engine.event_log() {
                match event {
                    EngineEvent::Rollback(_) => rollbacks += 1,
                    EngineEvent::Quarantine(_) => quarantines += 1,
                    _ => {}
                }
            }
            (engine.transition_log(), rollbacks, quarantines)
        }
        None => (Vec::new(), 0, 0),
    };

    RunResult {
        app: app.name.clone(),
        mode: mode.label(),
        wall_time,
        peak_bytes: peak,
        allocated_bytes: allocated,
        transitions,
        rollbacks,
        quarantines,
        sites,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::SizeDist;
    use crate::site::OpMix;

    fn tiny_app() -> AppSpec {
        AppSpec {
            name: "tiny".into(),
            sites: vec![
                SiteSpec::new(
                    "tiny/lists",
                    SiteKind::List(ListKind::Array),
                    300,
                    SizeDist::Uniform(50, 150),
                    OpMix {
                        lookups_per_element: 2.0,
                        ..OpMix::default()
                    },
                ),
                SiteSpec::new(
                    "tiny/maps",
                    SiteKind::Map(MapKind::Chained),
                    300,
                    SizeDist::Uniform(4, 16),
                    OpMix {
                        lookups_per_element: 3.0,
                        iterates: 1,
                        ..OpMix::default()
                    },
                ),
            ],
        }
    }

    #[test]
    fn checksum_is_mode_independent() {
        let app = tiny_app();
        let a = run_app(&app, Mode::Original, 9);
        let b = run_app(&app, Mode::InstanceAdap, 9);
        let c = run_app(&app, Mode::FullAdap(SelectionRule::r_time()), 9);
        assert_eq!(
            a.checksum, b.checksum,
            "InstanceAdap must not change behaviour"
        );
        assert_eq!(a.checksum, c.checksum, "FullAdap must not change behaviour");
    }

    #[test]
    fn fulladap_switches_lookup_heavy_list_site() {
        let app = tiny_app();
        let r = run_app(&app, Mode::FullAdap(SelectionRule::r_time()), 9);
        let list_site = &r.sites[0];
        assert_eq!(list_site.final_kind, "hasharray");
        assert!(!r.transitions.is_empty());
    }

    #[test]
    fn original_mode_keeps_defaults_and_logs_nothing() {
        let app = tiny_app();
        let r = run_app(&app, Mode::Original, 9);
        assert!(r.transitions.is_empty());
        assert_eq!(r.sites[0].final_kind, "array");
        assert_eq!(r.sites[1].final_kind, "chained");
    }

    #[test]
    fn instanceadap_reduces_small_map_footprint() {
        let app = AppSpec {
            name: "smallmaps".into(),
            sites: vec![SiteSpec::new(
                "smallmaps/site",
                SiteKind::Map(MapKind::Chained),
                500,
                SizeDist::Uniform(2, 12),
                OpMix {
                    lookups_per_element: 1.0,
                    ..OpMix::default()
                },
            )],
        };
        let original = run_app(&app, Mode::Original, 3);
        let adaptive = run_app(&app, Mode::InstanceAdap, 3);
        assert!(
            adaptive.peak_bytes < original.peak_bytes,
            "adaptive {} must undercut chained {}",
            adaptive.peak_bytes,
            original.peak_bytes
        );
    }

    #[test]
    fn original_mode_reports_no_guardrail_activity() {
        let r = run_app(&tiny_app(), Mode::Original, 9);
        assert_eq!(r.rollbacks, 0);
        assert_eq!(r.quarantines, 0);
    }

    #[test]
    fn results_carry_per_site_detail() {
        let r = run_app(&tiny_app(), Mode::Original, 1);
        assert_eq!(r.sites.len(), 2);
        assert!(r.sites.iter().all(|s| s.peak_bytes > 0));
        assert!(r.allocated_bytes > 0);
        assert!(r.wall_time > Duration::ZERO);
    }
}
