//! The `phased_lists` workload: the Fig. 6 sequence (contains → index →
//! iteration → search-and-remove → contains, five iterations each) over
//! `Rc<i64>` lists, CollectionSwitch under `R_time` with an analysis pass
//! after every iteration, against a fixed ArrayList.
//!
//! The phase script mirrors `cs_workloads::phases` (whose driver is not
//! public) so each iteration also yields a checksum that must agree between
//! the two configurations.

use std::any::Any;
use std::rc::Rc;
use std::time::Instant;

use cs_collections::{AnyList, ListKind};
use cs_core::{EngineEvent, ListContext, SelectionRule, Switch};
use cs_workloads::drive::DriveList;
use cs_workloads::phases::PhaseOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{Instance, Timed};
use crate::trace::{OpClock, Tracer};
use crate::{Bench, RepOutcome};

/// Boxed element: comparisons chase a pointer, as with the JVM's `Integer`.
type JInt = Rc<i64>;

/// One instance in this many gets create/script/drop spans when traced.
const TRACE_EVERY: usize = 16;

/// Populates one instance, then runs `ops` ops of the phase's mix.
fn drive_phase<L: DriveList<JInt>>(
    list: &mut L,
    size: usize,
    op: PhaseOp,
    ops: usize,
    rng: &mut StdRng,
) -> u64 {
    for v in 0..size as i64 {
        list.push(Rc::new(v));
    }
    let mut checksum = 0u64;
    match op {
        PhaseOp::Contains => {
            let span = (list.len().max(1) * 2) as i64;
            for _ in 0..ops {
                let key = Rc::new(rng.gen_range(0..span));
                checksum += u64::from(list.contains(&key));
            }
        }
        PhaseOp::Index => {
            for _ in 0..ops {
                if list.is_empty() {
                    break;
                }
                let mid = list.len() / 2;
                list.insert_at(mid, Rc::new(-1));
                checksum += list.remove_at(mid).unsigned_abs();
            }
        }
        PhaseOp::Iterate => {
            for _ in 0..ops {
                checksum += list.iterate() as u64;
            }
        }
        PhaseOp::SearchRemove => {
            for _ in 0..ops {
                if list.is_empty() {
                    break;
                }
                let span = (list.len() * 2) as i64;
                let key = Rc::new(rng.gen_range(0..span));
                checksum += u64::from(list.contains(&key));
                let idx = rng.gen_range(0..list.len());
                checksum += list.remove_at(idx).unsigned_abs();
            }
        }
    }
    checksum
}

/// The Fig. 6 scenario.
#[derive(Debug)]
pub struct Phased {
    seed: u64,
    instances_per_iter: usize,
    size: usize,
    ops_per_instance: usize,
    iters_per_phase: usize,
}

fn setup() -> (Switch, ListContext<JInt>) {
    let engine = Switch::builder().rule(SelectionRule::r_time()).build();
    let ctx = engine.named_list_context(ListKind::Array, "phased/list");
    (engine, ctx)
}

impl Phased {
    /// 400 instances of size 400 per iteration, 100 ops each; `tiny`
    /// shrinks it for smoke tests.
    pub fn new(seed: u64, tiny: bool) -> Self {
        Phased {
            seed,
            instances_per_iter: if tiny { 40 } else { 400 },
            size: if tiny { 60 } else { 400 },
            ops_per_instance: if tiny { 20 } else { 100 },
            iters_per_phase: if tiny { 2 } else { 5 },
        }
    }

    fn iterations<C: Instance>(
        &self,
        engine: Option<&Switch>,
        mut tracer: Option<&mut Tracer>,
        mut make: impl FnMut() -> C,
        mut drive: impl FnMut(&mut Timed<'_, C>, usize, PhaseOp, usize, &mut StdRng) -> u64,
    ) -> RepOutcome {
        let layer = if engine.is_some() {
            "core"
        } else {
            "collections"
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut clock = OpClock::default();
        let mut out = RepOutcome::default();
        let mut instance = 0usize;
        let start = Instant::now();
        for &op in PhaseOp::FIG6_SEQUENCE.iter() {
            for _ in 0..self.iters_per_phase {
                let iter_open = tracer.as_deref().map(Tracer::open);
                let parent = iter_open.map_or(0, |o| o.id);
                let mut checksum = 0u64;
                for _ in 0..self.instances_per_iter {
                    instance += 1;
                    let mut t = tracer
                        .as_deref_mut()
                        .filter(|_| instance.is_multiple_of(TRACE_EVERY));
                    let open = t.as_deref().map(Tracer::open);
                    let mut list = make();
                    if let (Some(t), Some(o)) = (t.as_deref_mut(), open) {
                        t.close(o, parent, "create", layer, 1);
                    }
                    let monitored = list.monitored();
                    let ops_before = clock.ops;
                    let open = t.as_deref().map(Tracer::open);
                    let mut timed = Timed {
                        inner: &mut list,
                        clock: &mut clock,
                    };
                    checksum = checksum.wrapping_add(drive(
                        &mut timed,
                        self.size,
                        op,
                        self.ops_per_instance,
                        &mut rng,
                    ));
                    let ops = clock.ops - ops_before;
                    if let (Some(t), Some(o)) = (t.as_deref_mut(), open) {
                        let name = match (layer, monitored) {
                            ("core", true) => "script.monitored",
                            ("core", false) => "script.unmonitored",
                            _ => "script",
                        };
                        t.close(o, parent, name, layer, ops);
                    }
                    out.counts.instances += 1;
                    if monitored {
                        out.counts.monitored_instances += 1;
                        out.counts.monitored_ops += ops;
                    }
                    out.peak_bytes = out.peak_bytes.max(list.heap_bytes() as u64);
                    out.alloc_bytes += list.allocated_bytes();
                    let open = t.as_deref().map(Tracer::open);
                    drop(list);
                    if let (Some(t), Some(o)) = (t, open) {
                        t.close(o, parent, "drop", layer, 1);
                    }
                }
                if let Some(engine) = engine {
                    out.counts.analyze_calls += 1;
                    let open = tracer.as_deref().map(Tracer::open);
                    engine.analyze_now();
                    if let (Some(t), Some(o)) = (tracer.as_deref_mut(), open) {
                        t.close(o, parent, "analyze_now", "engine", 1);
                    }
                }
                if let (Some(t), Some(o)) = (tracer.as_deref_mut(), iter_open) {
                    let root = t.root;
                    t.close(o, root, format!("iteration.{op}"), "bench", 1);
                }
                out.checks.push(checksum);
            }
        }
        out.wall = start.elapsed();
        out.ops = clock.ops;
        out.latency = clock.latency;
        out
    }
}

impl Bench for Phased {
    fn units(&self) -> usize {
        1
    }

    fn setup(&self) -> Box<dyn Any> {
        Box::new(setup())
    }

    fn run(&mut self, _unit: usize, adaptive: bool, tracer: Option<&mut Tracer>) -> RepOutcome {
        if !adaptive {
            return self.iterations(
                None,
                tracer,
                || AnyList::<JInt>::new(ListKind::Array),
                |c, size, op, n, r| drive_phase(c, size, op, n, r),
            );
        }
        let (engine, ctx) = setup();
        let mut out = self.iterations(
            Some(&engine),
            tracer,
            || ctx.create_list(),
            |c, size, op, n, r| drive_phase(c, size, op, n, r),
        );
        for event in engine.event_log() {
            match event {
                EngineEvent::Transition(_) => out.counts.transitions += 1,
                EngineEvent::Rollback(_) => out.counts.rollbacks += 1,
                EngineEvent::Quarantine(_) => out.counts.quarantines += 1,
                _ => {}
            }
        }
        let health = engine.health();
        out.counts.profiles_pushed = health.profiles_ingested;
        out.counts.profiles_dropped = health.profiles_dropped;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_and_fixed_lists_agree_per_iteration() {
        let mut bench = Phased::new(5, true);
        let base = bench.run(0, false, None);
        let adaptive = bench.run(0, true, None);
        assert_eq!(base.checks.len(), 10);
        assert_eq!(base.checks, adaptive.checks);
        assert_eq!(base.ops, adaptive.ops);
        assert_eq!(adaptive.counts.analyze_calls, 10);
    }
}
