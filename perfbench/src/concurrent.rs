//! The `concurrent_map` workload: a cs-runtime `ConcurrentMap<u64, u64>`
//! (Chained default, 64 shards, flush every 1024 ops) driven by two
//! closed-loop workers, against a `ShardedHashMap` with the same shard
//! count and the same op stream.
//!
//! The load runs in segments. Between segments the workers flush their
//! thread-local buffers and wait at a barrier while the main thread runs
//! `Runtime::analyze_now`, so every decision point sits at a fixed op count
//! rather than at a wall-clock tick. Keys are Zipf(0.99) over 65,536; 90 %
//! of ops read, and the mix inverts every 250 k ops per worker so the
//! site has phases to switch on.
//!
//! Every write stores `expected(key)`, so any read returning another value
//! is a failure; after the load the site's flushed op totals must equal
//! the generator's tallies (no op lost).

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cs_collections::{MapKind, ShardedHashMap};
use cs_core::{EngineEvent, Switch};
use cs_profile::OpKind;
use cs_runtime::{ConcurrentMap, Runtime, RuntimeConfig};
use cs_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{OpClock, Tracer};
use crate::{Bench, Counts, RepOutcome};

/// Load threads (the box this was sized on has two hardware threads).
const WORKERS: usize = 2;
const KEYS: usize = 65_536;
const ZIPF_EXPONENT: f64 = 0.99;
const READ_FRACTION: f64 = 0.9;
const SHARDS: usize = 64;
const FLUSH_OPS: u64 = 1024;
/// One op in this many gets its own span when traced.
const TRACE_OP_EVERY: u64 = 1024;

/// The value every write stores for `key`.
fn expected(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
}

/// The map operations the load issues.
trait Target: Sync {
    fn get(&self, key: u64) -> Option<u64>;
    fn insert(&self, key: u64, value: u64);
    fn remove(&self, key: u64);
    /// Publishes the calling thread's buffered op records.
    fn flush(&self);
}

impl Target for ConcurrentMap<u64, u64> {
    fn get(&self, key: u64) -> Option<u64> {
        ConcurrentMap::get(self, &key)
    }
    fn insert(&self, key: u64, value: u64) {
        ConcurrentMap::insert(self, key, value);
    }
    fn remove(&self, key: u64) {
        ConcurrentMap::remove(self, &key);
    }
    fn flush(&self) {
        ConcurrentMap::flush(self);
    }
}

impl Target for ShardedHashMap<u64, u64> {
    fn get(&self, key: u64) -> Option<u64> {
        self.read(&key, |v| *v)
    }
    fn insert(&self, key: u64, value: u64) {
        ShardedHashMap::insert(self, key, value);
    }
    fn remove(&self, key: u64) {
        ShardedHashMap::remove(self, &key);
    }
    fn flush(&self) {}
}

/// One worker's tallies.
#[derive(Default)]
struct Worker {
    per_op: [u64; 4],
    bad_reads: u64,
    clock: OpClock,
}

/// The concurrent map load.
#[derive(Debug)]
pub struct Concurrent {
    seed: u64,
    ops_per_worker: u64,
    segment_ops: u64,
    flip_every: u64,
    zipf: Zipf,
}

fn setup() -> (Runtime, ConcurrentMap<u64, u64>) {
    let config = RuntimeConfig {
        shards: SHARDS,
        flush_ops: FLUSH_OPS,
        // Flush on op count only: no decision may hinge on wall time.
        flush_interval: Duration::from_secs(3600),
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::with_config(Switch::builder().build(), config);
    let map = runtime.named_concurrent_map(MapKind::Chained, "bench/cmap");
    (runtime, map)
}

impl Concurrent {
    /// 2 workers × 1 M ops in 125 k-op segments, the mix inverting every
    /// 250 k; `tiny` shrinks it for smoke tests.
    pub fn new(seed: u64, tiny: bool) -> Self {
        let (ops_per_worker, segment_ops, flip_every) = if tiny {
            (40_000, 10_000, 20_000)
        } else {
            (1_000_000, 125_000, 250_000)
        };
        Concurrent {
            seed,
            ops_per_worker,
            segment_ops,
            flip_every,
            zipf: Zipf::new(KEYS, ZIPF_EXPONENT),
        }
    }

    /// Runs every segment against `map`; `runtime` (adaptive only) is
    /// analyzed between segments. Returns the wall time and the workers'
    /// tallies.
    fn load<M: Target>(
        &self,
        map: &M,
        runtime: Option<&Runtime>,
        mut tracer: Option<&mut Tracer>,
        counts: &mut Counts,
    ) -> (Duration, Vec<Worker>) {
        let layer = if runtime.is_some() {
            "runtime"
        } else {
            "collections"
        };
        let segments = self.ops_per_worker / self.segment_ops;
        let barrier = Barrier::new(WORKERS + 1);
        let segment_span = AtomicU64::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS as u64)
                .map(|t| {
                    let mut tracer = tracer.as_deref().map(Tracer::fork);
                    let (barrier, segment_span) = (&barrier, &segment_span);
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(t));
                        let mut w = Worker::default();
                        for seg in 0..segments {
                            barrier.wait();
                            let parent = segment_span.load(Ordering::SeqCst);
                            let open = tracer.as_ref().map(Tracer::open);
                            let worker_span = open.map_or(0, |o| o.id);
                            let first = seg * self.segment_ops;
                            for i in first..first + self.segment_ops {
                                self.op(
                                    map,
                                    i,
                                    &mut rng,
                                    &mut w,
                                    tracer.as_mut(),
                                    worker_span,
                                    layer,
                                );
                            }
                            let flush = tracer.as_ref().map(Tracer::open);
                            map.flush();
                            if let (Some(t), Some(f), Some(o)) = (tracer.as_mut(), flush, open) {
                                if layer == "runtime" {
                                    t.close(f, o.id, "flush", "runtime", 1);
                                }
                                t.close(o, parent, "worker", "bench", self.segment_ops);
                            }
                            barrier.wait();
                        }
                        (w, tracer)
                    })
                })
                .collect();

            let start = Instant::now();
            for _ in 0..segments {
                let open = tracer.as_deref().map(Tracer::open);
                segment_span.store(open.map_or(0, |o| o.id), Ordering::SeqCst);
                barrier.wait();
                barrier.wait();
                if let (Some(t), Some(o)) = (tracer.as_deref_mut(), open) {
                    let root = t.root;
                    t.close(
                        o,
                        root,
                        "segment",
                        "bench",
                        self.segment_ops * WORKERS as u64,
                    );
                }
                if let Some(rt) = runtime {
                    counts.analyze_calls += 1;
                    let open = tracer.as_deref().map(Tracer::open);
                    rt.analyze_now();
                    if let (Some(t), Some(o)) = (tracer.as_deref_mut(), open) {
                        let root = t.root;
                        t.close(o, root, "analyze_now", "engine", 1);
                    }
                }
            }
            let wall = start.elapsed();
            let workers = handles
                .into_iter()
                .map(|h| {
                    let (w, t) = h.join().expect("load worker panicked");
                    if let (Some(main), Some(t)) = (tracer.as_deref_mut(), t) {
                        main.absorb(t);
                    }
                    w
                })
                .collect();
            (wall, workers)
        })
    }

    /// Issues op `i` of a worker's stream.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn op<M: Target>(
        &self,
        map: &M,
        i: u64,
        rng: &mut StdRng,
        w: &mut Worker,
        tracer: Option<&mut Tracer>,
        parent: u64,
        layer: &'static str,
    ) {
        let read_fraction = if (i / self.flip_every) % 2 == 1 {
            1.0 - READ_FRACTION
        } else {
            READ_FRACTION
        };
        let key = self.zipf.sample(rng);
        let read = rng.gen_bool(read_fraction);
        let remove = !read && rng.gen_bool(0.125);
        let tracer = tracer.filter(|_| i.is_multiple_of(TRACE_OP_EVERY));
        let open = tracer.as_deref().map(Tracer::open);
        let Worker {
            per_op,
            bad_reads,
            clock,
        } = w;
        clock.op(|| {
            if read {
                per_op[OpKind::Contains.index()] += 1;
                if map.get(key).is_some_and(|v| v != expected(key)) {
                    *bad_reads += 1;
                }
            } else if remove {
                per_op[OpKind::Middle.index()] += 1;
                map.remove(key);
            } else {
                per_op[OpKind::Populate.index()] += 1;
                map.insert(key, expected(key));
            }
        });
        if let (Some(t), Some(o)) = (tracer, open) {
            t.close(o, parent, "op", layer, 1);
        }
    }
}

fn outcome(wall: Duration, workers: Vec<Worker>, mut counts: Counts) -> (RepOutcome, [u64; 4]) {
    let mut out = RepOutcome {
        wall,
        ..RepOutcome::default()
    };
    let mut tallies = [0u64; 4];
    for w in workers {
        for (t, n) in tallies.iter_mut().zip(w.per_op) {
            *t += n;
        }
        out.ops += w.clock.ops;
        out.latency.merge(&w.clock.latency);
        out.self_failed += w.bad_reads;
    }
    out.self_checked = out.ops;
    counts.instances = 1;
    out.counts = counts;
    (out, tallies)
}

impl Bench for Concurrent {
    fn units(&self) -> usize {
        1
    }

    fn setup(&self) -> Box<dyn Any> {
        Box::new(setup())
    }

    fn run(&mut self, _unit: usize, adaptive: bool, mut tracer: Option<&mut Tracer>) -> RepOutcome {
        let mut counts = Counts::default();
        if !adaptive {
            let map = ShardedHashMap::with_shards(SHARDS);
            let (wall, workers) = self.load(&map, None, tracer, &mut counts);
            return outcome(wall, workers, counts).0;
        }

        let open = tracer.as_deref().map(Tracer::open);
        let (runtime, map) = setup();
        if let (Some(t), Some(o)) = (tracer.as_deref_mut(), open) {
            let root = t.root;
            t.close(o, root, "create", "runtime", 1);
        }
        let (wall, workers) = self.load(&map, Some(&runtime), tracer.as_deref_mut(), &mut counts);
        let stats = map.stats();
        counts.flushes = stats.flushes;
        counts.contended = stats.contended;
        counts.switches = stats.switches;
        counts.migrations = map.strategy_migrations();
        for event in runtime.engine().event_log() {
            match event {
                EngineEvent::Transition(_) => counts.transitions += 1,
                EngineEvent::Rollback(_) => counts.rollbacks += 1,
                EngineEvent::Quarantine(_) => counts.quarantines += 1,
                _ => {}
            }
        }
        let health = runtime.engine().health();
        counts.profiles_pushed = health.profiles_ingested;
        counts.profiles_dropped = health.profiles_dropped;
        counts.monitored_instances = 1;

        let (mut out, tallies) = outcome(wall, workers, counts);
        let lost: u64 = tallies
            .iter()
            .zip(stats.ops)
            .map(|(&issued, counted)| issued.abs_diff(counted))
            .sum();
        out.counts.lost_ops = lost;
        out.counts.monitored_ops = out.ops;
        out.self_failed += lost;

        let open = tracer.as_deref().map(Tracer::open);
        drop(map);
        drop(runtime);
        if let (Some(t), Some(o)) = (tracer, open) {
            let root = t.root;
            t.close(o, root, "drop", "runtime", 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmented_load_loses_nothing_and_reads_what_was_written() {
        let mut bench = Concurrent::new(9, true);
        let base = bench.run(0, false, None);
        let adaptive = bench.run(0, true, None);
        for out in [&base, &adaptive] {
            assert_eq!(out.ops, 2 * 40_000);
            assert_eq!(out.self_checked, out.ops);
            assert_eq!(out.self_failed, 0);
        }
        assert_eq!(adaptive.counts.lost_ops, 0);
        assert_eq!(adaptive.counts.analyze_calls, 4);
        assert!(adaptive.counts.flushes >= 8, "{:?}", adaptive.counts);
    }

    #[test]
    fn a_wrong_value_is_a_failed_read() {
        let bench = Concurrent::new(1, true);
        let map = ShardedHashMap::with_shards(SHARDS);
        for k in 0..KEYS as u64 {
            map.insert(k, expected(k) + 1);
        }
        let mut counts = Counts::default();
        let (_, workers) = bench.load(&map, None, None, &mut counts);
        let (out, _) = outcome(Duration::ZERO, workers, counts);
        assert!(out.self_failed > 0);
    }
}
