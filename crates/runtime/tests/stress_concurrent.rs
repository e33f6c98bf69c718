//! Concurrent stress harness: guarded adaptation under multi-threaded load.
//!
//! N writer threads hammer one [`ConcurrentMap`] while an analyzer loop
//! forces the full guarded-adaptation cycle — an inverted performance model
//! provokes a switch to the array-backed map variant, which measures far
//! slower under the get-heavy load, so post-switch verification must roll
//! it back and quarantine the candidate — all while the shards are being
//! mutated from every worker.
//!
//! The harness asserts the two invariants the runtime promises:
//!
//! * **Zero lost ops** — the sum of per-thread op counts equals the site's
//!   exact flushed totals, per op kind, despite shard buffers flushing on
//!   count triggers, explicit flushes, and migration cuts interleaved with
//!   switches and rollbacks.
//! * **Event-log consistency** — context switch/rollback counters match the
//!   engine's transition and event logs, the restored variant is live, data
//!   survives every migration, and the engine never degrades.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cs_collections::MapKind;
use cs_core::{EngineEvent, GuardrailConfig, Models, SelectionRule, Switch};
use cs_profile::{OpKind, WindowConfig};
use cs_runtime::{ConcurrentMap, Runtime, RuntimeConfig};

const THREADS: usize = 4;
const KEYS_PER_THREAD: u64 = 1_024;
const ROUNDS_PER_THREAD: u64 = 60;

/// Per-thread op tallies, indexed like [`OpKind::index`]. Kept in plain
/// locals while the thread runs; only the final sums cross threads.
#[derive(Default)]
struct Tally {
    ops: [u64; 4],
}

impl Tally {
    fn bump(&mut self, op: OpKind) {
        self.ops[op.index()] += 1;
    }
}

/// One worker: owns the key range `[base, base + KEYS_PER_THREAD)` and runs
/// a get-heavy mix over it. Removes are immediately re-inserted so the
/// final map size is deterministic. Returns the thread's exact op tally.
fn worker(map: ConcurrentMap<u64, u64>, base: u64) -> Tally {
    let mut tally = Tally::default();
    for round in 0..ROUNDS_PER_THREAD {
        for i in 0..KEYS_PER_THREAD {
            let key = base + i;
            if round == 0 {
                map.insert(key, key * 2);
                tally.bump(OpKind::Populate);
                continue;
            }
            // Get-heavy steady state: 14 gets to 1 remove+reinsert pair,
            // making the array variant's linear scans dominate measured
            // time once the inverted model provokes the switch.
            if i % 16 == 15 {
                assert_eq!(map.remove(&key), Some(key * 2), "lost entry {key}");
                tally.bump(OpKind::Middle);
                map.insert(key, key * 2);
                tally.bump(OpKind::Populate);
            } else {
                assert_eq!(map.get(&key), Some(key * 2), "lost entry {key}");
                tally.bump(OpKind::Contains);
            }
        }
    }
    // Half the workers publish the shards' residue themselves; the rest
    // leave it to the main thread's `Runtime::flush` — both paths must
    // account every op.
    if base.is_multiple_of(2) {
        map.flush();
    }
    tally
}

#[test]
fn guarded_adaptation_survives_concurrent_mutation_with_zero_lost_ops() {
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(Models {
            map: common::inverted_model(MapKind::Array, MapKind::Chained),
            ..Default::default()
        })
        // Once verification refutes the array candidate, keep it out as
        // long as the guardrails allow. The 64-round quarantine cap clips
        // this base, so the analyzer may re-try the candidate 64 site
        // rounds after the rollback (4 at the default base); a re-try is
        // correct behaviour, but not what this harness pins down.
        .guardrails(GuardrailConfig::default().quarantine_base(1_000_000))
        // Small windows so analysis rounds fire many times within the run.
        .window(WindowConfig {
            window_size: 24,
            finished_ratio: 0.5,
            min_samples: 8,
            ..WindowConfig::default()
        })
        .build();
    let rt = Runtime::with_config(
        engine,
        RuntimeConfig {
            shards: 4, // ~1k entries per shard: array scans are unmissably slow
            flush_ops: 512,
            ..RuntimeConfig::default()
        },
    );
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "stress/guarded");

    let stop = Arc::new(AtomicBool::new(false));
    let analyzer = {
        let rt = rt.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rounds = 0u32;
            while !stop.load(Ordering::Relaxed) {
                rt.analyze_now();
                rounds += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            rounds
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || worker(map, t as u64 * KEYS_PER_THREAD))
        })
        .collect();
    let tallies: Vec<Tally> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Drive rounds until the provoked switch has been verified (rolled
    // back), in case the workers finished between a switch and its
    // verification window. The main thread generates the verification
    // traffic; its ops are tallied like any worker's.
    let mut main_tally = Tally::default();
    for _ in 0..40 {
        let s = map.stats();
        if s.switches > 0 && s.rollbacks > 0 {
            break;
        }
        for i in 0..(THREADS as u64 * KEYS_PER_THREAD) {
            map.get(&i);
            main_tally.bump(OpKind::Contains);
        }
        rt.flush();
        rt.analyze_now();
    }
    stop.store(true, Ordering::Relaxed);
    let analyzer_rounds = analyzer.join().unwrap();
    assert!(analyzer_rounds > 0);
    rt.flush();

    let stats = map.stats();

    // --- Zero lost ops: exact per-kind accounting across every thread. ---
    for op in OpKind::ALL {
        let expected: u64 =
            tallies.iter().map(|t| t.ops[op.index()]).sum::<u64>() + main_tally.ops[op.index()];
        assert_eq!(
            stats.ops[op.index()],
            expected,
            "op kind {op:?}: site total must equal the sum of thread tallies"
        );
    }
    let expected_total: u64 = tallies
        .iter()
        .map(|t| t.ops.iter().sum::<u64>())
        .sum::<u64>()
        + main_tally.ops.iter().sum::<u64>();
    assert_eq!(stats.total_ops, expected_total);
    assert!(stats.flushes > 0);

    // --- Guarded adaptation actually exercised, concurrently. ---
    assert!(
        stats.switches >= 1,
        "the inverted model must provoke at least one switch; stats: {stats}"
    );
    assert!(
        stats.rollbacks >= 1,
        "verification must roll the bad switch back; stats: {stats}"
    );
    assert_eq!(
        map.current_kind(),
        MapKind::Chained,
        "the restored variant must be live after rollback"
    );

    // --- Event-log consistency. ---
    let engine = rt.engine();
    assert!(!engine.is_degraded());
    assert_eq!(engine.transition_log().len() as u64, stats.switches);
    let rollback_events = engine
        .event_log()
        .iter()
        .filter(|e| matches!(e, EngineEvent::Rollback(_)))
        .count() as u64;
    assert_eq!(rollback_events, stats.rollbacks);
    let quarantines: Vec<_> = engine
        .event_log()
        .into_iter()
        .filter_map(|e| match e {
            EngineEvent::Quarantine(q) => Some(q),
            _ => None,
        })
        .collect();
    assert_eq!(quarantines.len() as u64, stats.rollbacks);
    assert!(quarantines.iter().all(|q| q.candidate == "array"));

    // --- Data integrity across switch + rollback migrations. ---
    assert_eq!(map.len(), THREADS * KEYS_PER_THREAD as usize);
    for key in 0..(THREADS as u64 * KEYS_PER_THREAD) {
        assert_eq!(
            map.read(&key, |v| *v),
            Some(key * 2),
            "entry {key} corrupted"
        );
    }
}

/// Pure throughput-shaped smoke: no model games, just many threads on one
/// map with the analyzer running, asserting exact accounting at the end.
#[test]
fn eight_threads_exact_accounting_under_background_analysis() {
    let rt = Runtime::with_config(
        Switch::builder().rule(SelectionRule::r_time()).build(),
        RuntimeConfig {
            flush_ops: 256,
            ..RuntimeConfig::default()
        },
    );
    let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
    let stop = Arc::new(AtomicBool::new(false));
    let analyzer = {
        let rt = rt.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                rt.analyze_now();
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    const N: usize = 8;
    const OPS: u64 = 20_000;
    let totals: Vec<u64> = (0..N as u64)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                let mut ops = 0u64;
                for i in 0..OPS {
                    let key = (t * OPS + i) % 4_096;
                    if i % 4 == 0 {
                        map.insert(key, i);
                    } else {
                        map.get(&key);
                    }
                    ops += 1;
                }
                ops
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    stop.store(true, Ordering::Relaxed);
    analyzer.join().unwrap();
    rt.flush();

    let stats = map.stats();
    assert_eq!(stats.total_ops, totals.iter().sum::<u64>());
    assert_eq!(stats.total_ops, N as u64 * OPS);
    assert!(stats.max_size > 0);
}

/// Read-modify-write under a live switch: 4 threads increment the same few
/// keys through [`ConcurrentMap::update`], the main thread forces a variant
/// switch between two rounds, and the second round runs against shards that
/// migrate lazily under their locks. Phases are ordered by barriers only, so
/// the switch provably lands between the rounds on every run.
#[test]
fn shared_key_updates_survive_a_forced_switch() {
    const KEYS: u64 = 4;
    const INCREMENTS_PER_ROUND: u64 = 500;
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(Models {
            map: common::inverted_model(MapKind::Array, MapKind::Chained),
            ..Default::default()
        })
        // The outcome under test is the switch itself; verification would
        // judge it on wall time.
        .guardrails(GuardrailConfig::disabled())
        .window(WindowConfig {
            window_size: 24,
            finished_ratio: 0.5,
            min_samples: 8,
            ..WindowConfig::default()
        })
        .build();
    let rt = Runtime::with_config(
        engine,
        RuntimeConfig {
            shards: 4,
            flush_ops: 64,
            ..RuntimeConfig::default()
        },
    );
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "stress/update");
    let barrier = Arc::new(Barrier::new(THREADS + 1));

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let map = map.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let round = || {
                    for _ in 0..INCREMENTS_PER_ROUND {
                        for key in 0..KEYS {
                            map.update(key, || 0, |v| *v += 1);
                        }
                    }
                    // Publish this round's profiles before the main thread
                    // analyzes (and exact totals before the final check).
                    map.flush();
                };
                round();
                barrier.wait(); // round 0 flushed
                barrier.wait(); // the forced switch is done
                round();
            })
        })
        .collect();

    barrier.wait(); // every worker finished and flushed round 0
    assert_eq!(map.stats().switches, 0);
    rt.analyze_now();
    assert_eq!(
        map.current_kind(),
        MapKind::Array,
        "the inverted model must switch the site; stats: {}",
        map.stats()
    );
    barrier.wait(); // release round 1 onto the switched site
    for w in workers {
        w.join().unwrap();
    }

    let stats = map.stats();
    assert!(stats.switches >= 1, "stats: {stats}");
    let increments = THREADS as u64 * 2 * INCREMENTS_PER_ROUND;
    for key in 0..KEYS {
        assert_eq!(map.get(&key), Some(increments), "key {key} lost updates");
    }
    assert_eq!(stats.ops[OpKind::Populate.index()], KEYS * increments);
}
