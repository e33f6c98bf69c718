//! The `apps_rtime` and `apps_noswitch` workloads: the five synthetic
//! Table 5 applications under FullAdap (one engine per app run) against
//! Original (declared defaults, no framework).
//!
//! The per-instance scripts and the analysis cadence reproduce
//! `cs_workloads::runner::run_app` draw for draw, so both produce the same
//! checksum for a seed (a unit test holds them to it). The runner is
//! re-implemented here because the benchmark must own the engine (to time
//! its set-up), wrap each handle (to clock its ops) and see each
//! `analyze_now` call (to span it).

use std::any::Any;
use std::collections::VecDeque;
use std::time::Instant;

use cs_collections::{AnyList, AnyMap, AnySet};
use cs_core::{EngineEvent, ListContext, MapContext, SelectionRule, SetContext, Switch};
use cs_workloads::drive::{DriveList, DriveMap, DriveSet};
use cs_workloads::{apps, AppSpec, SiteKind, SiteSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{Instance, Timed};
use crate::trace::{OpClock, Tracer};
use crate::{Bench, Counts, RepOutcome};

/// Created instances between analysis passes, as in `run_app`.
const ANALYZE_EVERY: usize = 128;
/// One instance in this many gets create/script/drop spans when traced.
const TRACE_EVERY: usize = 16;

fn drive_list<L: DriveList<i64>>(c: &mut L, size: usize, spec: &SiteSpec, rng: &mut StdRng) -> u64 {
    let mut checksum = 0u64;
    for k in 0..size as i64 {
        c.push(k);
    }
    let lookups = spec.mix.lookups(size);
    let key_span = (size.max(1) as f64 / (1.0 - spec.mix.miss_rate).max(0.05)) as i64;
    for _ in 0..lookups {
        let key = rng.gen_range(0..key_span.max(1));
        checksum += u64::from(c.contains(&key));
    }
    for _ in 0..spec.mix.iterates {
        checksum += c.iterate() as u64;
    }
    for _ in 0..spec.mix.middles {
        if !c.is_empty() {
            let mid = c.len() / 2;
            c.insert_at(mid, -1);
            checksum += c.remove_at(mid).unsigned_abs();
        }
    }
    checksum
}

fn drive_set<S: DriveSet<i64>>(c: &mut S, size: usize, spec: &SiteSpec, rng: &mut StdRng) -> u64 {
    let mut checksum = 0u64;
    for k in 0..size as i64 {
        c.insert(k);
    }
    let lookups = spec.mix.lookups(size);
    let key_span = (size.max(1) as f64 / (1.0 - spec.mix.miss_rate).max(0.05)) as i64;
    for _ in 0..lookups {
        let key = rng.gen_range(0..key_span.max(1));
        checksum += u64::from(c.contains(&key));
    }
    for _ in 0..spec.mix.iterates {
        checksum += c.iterate() as u64;
    }
    for _ in 0..spec.mix.middles {
        let key = (size / 2) as i64;
        checksum += u64::from(c.remove(&key));
        c.insert(key);
    }
    checksum
}

fn drive_map<M: DriveMap<i64, i64>>(
    c: &mut M,
    size: usize,
    spec: &SiteSpec,
    rng: &mut StdRng,
) -> u64 {
    let mut checksum = 0u64;
    for k in 0..size as i64 {
        c.insert(k, k.wrapping_mul(3));
    }
    let lookups = spec.mix.lookups(size);
    let key_span = (size.max(1) as f64 / (1.0 - spec.mix.miss_rate).max(0.05)) as i64;
    for _ in 0..lookups {
        let key = rng.gen_range(0..key_span.max(1));
        checksum += u64::from(c.get(&key));
    }
    for _ in 0..spec.mix.iterates {
        checksum += c.iterate() as u64;
    }
    for _ in 0..spec.mix.middles {
        let key = (size / 2) as i64;
        checksum += c.remove(&key).map_or(0, |v| v.unsigned_abs());
        c.insert(key, key);
    }
    checksum
}

/// A site's allocation context, registered during set-up.
enum SiteCtx {
    List(ListContext<i64>),
    Set(SetContext<i64>),
    Map(MapContext<i64, i64>),
}

/// Builds the engine and registers every site of `app`: the adaptive
/// configuration's set-up, all of it before the first op.
fn setup(app: &AppSpec, rule: &SelectionRule) -> (Switch, Vec<SiteCtx>) {
    let engine = Switch::builder().rule(rule.clone()).build();
    let ctxs = app
        .sites
        .iter()
        .map(|s| match s.kind {
            SiteKind::List(k) => SiteCtx::List(engine.named_list_context(k, s.name.clone())),
            SiteKind::Set(k) => SiteCtx::Set(engine.named_set_context(k, s.name.clone())),
            SiteKind::Map(k) => SiteCtx::Map(engine.named_map_context(k, s.name.clone())),
        })
        .collect();
    (engine, ctxs)
}

/// State threaded through one app run.
struct Run<'a> {
    engine: Option<&'a Switch>,
    tracer: Option<&'a mut Tracer>,
    rng: StdRng,
    clock: OpClock,
    counts: Counts,
    instances_done: usize,
    site_span: u64,
    checksum: u64,
    peak_bytes: u64,
    alloc_bytes: u64,
}

impl Run<'_> {
    /// The analysis cadence of `run_app`: a pass every `ANALYZE_EVERY`
    /// created instances, counted across sites.
    fn tick(&mut self) {
        self.instances_done += 1;
        let Some(engine) = self.engine else { return };
        if !self.instances_done.is_multiple_of(ANALYZE_EVERY) {
            return;
        }
        self.counts.analyze_calls += 1;
        match self.tracer.as_deref_mut() {
            Some(t) => {
                let open = t.open();
                engine.analyze_now();
                t.close(open, self.site_span, "analyze_now", "engine", 1);
            }
            None => engine.analyze_now(),
        }
    }

    fn site<C: Instance>(
        &mut self,
        spec: &SiteSpec,
        mut make: impl FnMut() -> C,
        mut drive: impl FnMut(&mut Timed<'_, C>, usize, &mut StdRng) -> u64,
    ) {
        let layer = if self.engine.is_some() {
            "core"
        } else {
            "collections"
        };
        let mut live: VecDeque<(C, usize, bool)> = VecDeque::with_capacity(spec.retained + 1);
        let mut live_bytes = 0usize;
        let mut peak = 0usize;
        for _ in 0..spec.instances {
            self.tick();
            let size = spec.sizes.sample(&mut self.rng);
            let mut tracer = self
                .tracer
                .as_deref_mut()
                .filter(|_| self.instances_done.is_multiple_of(TRACE_EVERY));
            let traced = tracer.is_some();

            let open = tracer.as_deref().map(Tracer::open);
            let mut c = make();
            if let (Some(t), Some(o)) = (tracer.as_deref_mut(), open) {
                t.close(o, self.site_span, "create", layer, 1);
            }
            let monitored = c.monitored();
            let ops_before = self.clock.ops;
            let open = tracer.as_deref().map(Tracer::open);
            let mut timed = Timed {
                inner: &mut c,
                clock: &mut self.clock,
            };
            self.checksum = self
                .checksum
                .wrapping_add(drive(&mut timed, size, &mut self.rng));
            let ops = self.clock.ops - ops_before;
            if let (Some(t), Some(o)) = (tracer, open) {
                let name = match (layer, monitored) {
                    ("core", true) => "script.monitored",
                    ("core", false) => "script.unmonitored",
                    _ => "script",
                };
                t.close(o, self.site_span, name, layer, ops);
            }
            self.counts.instances += 1;
            if monitored {
                self.counts.monitored_instances += 1;
                self.counts.monitored_ops += ops;
            }

            let bytes = c.heap_bytes();
            live_bytes += bytes;
            live.push_back((c, bytes, traced));
            if live.len() > spec.retained {
                let (old, old_bytes, old_traced) = live.pop_front().expect("nonempty");
                live_bytes -= old_bytes;
                self.retire(old, old_traced, layer);
            }
            peak = peak.max(live_bytes);
        }
        while let Some((c, _, traced)) = live.pop_front() {
            self.retire(c, traced, layer);
        }
        self.peak_bytes += peak as u64;
    }

    fn retire<C: Instance>(&mut self, c: C, traced: bool, layer: &'static str) {
        self.alloc_bytes += c.allocated_bytes();
        match self.tracer.as_deref_mut().filter(|_| traced) {
            Some(t) => {
                let open = t.open();
                drop(c);
                t.close(open, self.site_span, "drop", layer, 1);
            }
            None => drop(c),
        }
    }
}

/// The Table 5 applications under one selection rule.
#[derive(Debug)]
pub struct Apps {
    apps: Vec<AppSpec>,
    rule: SelectionRule,
    seed: u64,
}

impl Apps {
    /// All five apps at `scale`, FullAdap under `rule`, inputs from `seed`.
    pub fn new(scale: usize, rule: SelectionRule, seed: u64) -> Self {
        Apps {
            apps: apps::all_apps(scale),
            rule,
            seed,
        }
    }

    fn run_app(
        &self,
        app: &AppSpec,
        adaptive: bool,
        mut tracer: Option<&mut Tracer>,
    ) -> RepOutcome {
        let setup = adaptive.then(|| setup(app, &self.rule));
        let app_span = tracer.as_deref().map(Tracer::open);
        let mut run = Run {
            engine: setup.as_ref().map(|(e, _)| e),
            tracer: tracer.as_deref_mut(),
            rng: StdRng::seed_from_u64(self.seed),
            clock: OpClock::default(),
            counts: Counts::default(),
            instances_done: 0,
            site_span: 0,
            checksum: 0,
            peak_bytes: 0,
            alloc_bytes: 0,
        };
        let ctxs = setup.as_ref().map(|(_, c)| c);
        let start = Instant::now();
        for (i, spec) in app.sites.iter().enumerate() {
            let site_open = run.tracer.as_deref().map(Tracer::open);
            run.site_span = site_open.map_or(0, |o| o.id);
            match (ctxs.map(|c| &c[i]), spec.kind) {
                (Some(SiteCtx::List(ctx)), _) => run.site(
                    spec,
                    || ctx.create_list(),
                    |c, n, r| drive_list(c, n, spec, r),
                ),
                (Some(SiteCtx::Set(ctx)), _) => run.site(
                    spec,
                    || ctx.create_set(),
                    |c, n, r| drive_set(c, n, spec, r),
                ),
                (Some(SiteCtx::Map(ctx)), _) => run.site(
                    spec,
                    || ctx.create_map(),
                    |c, n, r| drive_map(c, n, spec, r),
                ),
                (None, SiteKind::List(k)) => run.site(
                    spec,
                    || AnyList::<i64>::new(k),
                    |c, n, r| drive_list(c, n, spec, r),
                ),
                (None, SiteKind::Set(k)) => run.site(
                    spec,
                    || AnySet::<i64>::new(k),
                    |c, n, r| drive_set(c, n, spec, r),
                ),
                (None, SiteKind::Map(k)) => run.site(
                    spec,
                    || AnyMap::<i64, i64>::new(k),
                    |c, n, r| drive_map(c, n, spec, r),
                ),
            }
            if let (Some(t), Some(o)) = (run.tracer.as_deref_mut(), site_open) {
                t.close(
                    o,
                    app_span.map_or(0, |a| a.id),
                    spec.name.clone(),
                    "bench",
                    1,
                );
            }
        }
        let wall = start.elapsed();

        let Run {
            clock,
            mut counts,
            checksum,
            peak_bytes,
            alloc_bytes,
            ..
        } = run;
        if let Some((engine, _)) = &setup {
            for event in engine.event_log() {
                match event {
                    EngineEvent::Transition(_) => counts.transitions += 1,
                    EngineEvent::Rollback(_) => counts.rollbacks += 1,
                    EngineEvent::Quarantine(_) => counts.quarantines += 1,
                    _ => {}
                }
            }
            let health = engine.health();
            counts.profiles_pushed += health.profiles_ingested;
            counts.profiles_dropped += health.profiles_dropped;
        }
        if let (Some(t), Some(o)) = (tracer, app_span) {
            let root = t.root;
            t.close(o, root, app.name.clone(), "bench", 1);
        }
        RepOutcome {
            wall,
            ops: clock.ops,
            latency: clock.latency,
            peak_bytes,
            alloc_bytes,
            checks: vec![checksum],
            counts,
            ..RepOutcome::default()
        }
    }
}

impl Bench for Apps {
    fn units(&self) -> usize {
        self.apps.len()
    }

    fn setup(&self) -> Box<dyn Any> {
        let built: Vec<_> = self.apps.iter().map(|a| setup(a, &self.rule)).collect();
        Box::new(built)
    }

    fn run(&mut self, unit: usize, adaptive: bool, tracer: Option<&mut Tracer>) -> RepOutcome {
        self.run_app(&self.apps[unit], adaptive, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_workloads::runner::{run_app, Mode};

    #[test]
    fn matches_run_app_checksum_and_transitions() {
        let bench = Apps::new(1, SelectionRule::r_time(), 11);
        for app in &bench.apps {
            let reference = run_app(app, Mode::FullAdap(SelectionRule::r_time()), 11);
            let original = run_app(app, Mode::Original, 11);
            let ours = bench.run_app(app, true, None);
            let base = bench.run_app(app, false, None);
            assert_eq!(ours.checks, vec![reference.checksum], "{}", app.name);
            assert_eq!(base.checks, vec![original.checksum], "{}", app.name);
            assert_eq!(base.peak_bytes, original.peak_bytes as u64, "{}", app.name);
            assert_eq!(base.alloc_bytes, original.allocated_bytes, "{}", app.name);
            // Rollbacks hinge on measured wall time, so the transition
            // count may differ run to run; whether the app switches may not.
            assert_eq!(
                ours.counts.transitions > 0,
                !reference.transitions.is_empty(),
                "{}",
                app.name
            );
        }
    }

    #[test]
    fn impossible_rule_never_switches() {
        let bench = Apps::new(1, SelectionRule::impossible(), 3);
        let out = bench.run_app(&bench.apps[3], true, None);
        assert_eq!(out.counts.transitions, 0);
        assert!(out.counts.analyze_calls > 0);
        assert!(out.counts.monitored_instances > 0);
    }
}
