//! Multi-threaded closed-loop load generator for the concurrent runtime.
//!
//! Drives a [`ConcurrentMap`] with N closed-loop workers (each issues its
//! next op as soon as the previous one returns), Zipf-distributed keys, a
//! configurable read/write mix, and optional phase flips that invert the
//! mix every K ops — the workload shape the thread-sweep benchmark
//! (`runtime_sweep`) measures.
//!
//! Workers tally their ops in plain locals and sample op latency 1-in-2^k,
//! so the generator adds no shared state of its own to the measured path;
//! the report's exact per-op totals exist to be cross-checked against
//! [`SiteStats`](cs_runtime::SiteStats) — the runtime's zero-lost-ops
//! invariant, asserted from outside the runtime crate.

use std::time::{Duration, Instant};

use cs_profile::OpKind;
use cs_runtime::ConcurrentMap;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::dist::Zipf;

/// Configuration of one closed-loop concurrent load run.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentLoad {
    /// Worker threads, each running its own closed loop.
    pub threads: usize,
    /// Key-space size; keys are drawn Zipf-distributed from `0..keys`.
    pub keys: usize,
    /// Zipf exponent (`0` = uniform, ~1 = YCSB-like skew).
    pub zipf_exponent: f64,
    /// Fraction of ops that are reads (`get`); the rest are writes
    /// (7-in-8 `insert`, 1-in-8 `remove`).
    pub read_fraction: f64,
    /// Ops each worker issues.
    pub ops_per_thread: u64,
    /// Invert the read/write mix every this many ops (per worker) — the
    /// paper's phase-change shape. `None` keeps one phase throughout.
    pub phase_flip_every: Option<u64>,
    /// Latency sampling: op `i` is wall-clocked when
    /// `i & latency_sample_mask == 0` (so `0` times every op).
    pub latency_sample_mask: u64,
    /// Base RNG seed; worker `t` uses `seed + t`.
    pub seed: u64,
}

impl Default for ConcurrentLoad {
    fn default() -> Self {
        ConcurrentLoad {
            threads: 4,
            keys: 16_384,
            zipf_exponent: 0.99,
            read_fraction: 0.9,
            ops_per_thread: 100_000,
            phase_flip_every: None,
            latency_sample_mask: 127,
            seed: 42,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Ops issued across all workers.
    pub total_ops: u64,
    /// Ops issued by each worker (closed-loop, so all equal by design).
    pub per_thread_ops: Vec<u64>,
    /// Exact per-op-kind totals the generator issued, indexed by
    /// [`OpKind::index`] — compare against the site's flushed totals.
    pub per_op_totals: [u64; 4],
    /// Wall time from first worker start to last worker exit.
    pub elapsed: Duration,
    /// `total_ops / elapsed`.
    pub throughput_ops_per_sec: f64,
    /// Sampled op latencies in nanoseconds, sorted ascending.
    pub latencies_ns: Vec<u64>,
}

impl LoadReport {
    /// The `q`-quantile (0.0–1.0) of the sampled latencies, in nanos.
    pub fn latency_ns(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_ns.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.latencies_ns[idx]
    }

    /// Median sampled latency in nanos.
    pub fn p50_ns(&self) -> u64 {
        self.latency_ns(0.50)
    }

    /// 99th-percentile sampled latency in nanos.
    pub fn p99_ns(&self) -> u64 {
        self.latency_ns(0.99)
    }

    /// Worst sampled latency in nanos.
    pub fn max_ns(&self) -> u64 {
        self.latencies_ns.last().copied().unwrap_or(0)
    }
}

struct WorkerResult {
    ops: u64,
    per_op: [u64; 4],
    latencies: Vec<u64>,
}

fn worker(map: ConcurrentMap<u64, u64>, cfg: ConcurrentLoad, thread: u64) -> WorkerResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(thread));
    let zipf = Zipf::new(cfg.keys, cfg.zipf_exponent);
    let mut per_op = [0u64; 4];
    let mut latencies =
        Vec::with_capacity((cfg.ops_per_thread >> cfg.latency_sample_mask.count_ones()) as usize);
    for i in 0..cfg.ops_per_thread {
        let flipped = cfg
            .phase_flip_every
            .is_some_and(|p| p > 0 && (i / p) % 2 == 1);
        let read_fraction = if flipped {
            1.0 - cfg.read_fraction
        } else {
            cfg.read_fraction
        };
        let key = zipf.sample(&mut rng);
        let read = rng.gen_bool(read_fraction.clamp(0.0, 1.0));
        let remove = !read && rng.gen_bool(0.125);
        let timed = i & cfg.latency_sample_mask == 0;
        let start = timed.then(Instant::now);
        if read {
            std::hint::black_box(map.get(&key));
            per_op[OpKind::Contains.index()] += 1;
        } else if remove {
            std::hint::black_box(map.remove(&key));
            per_op[OpKind::Middle.index()] += 1;
        } else {
            map.insert(key, i);
            per_op[OpKind::Populate.index()] += 1;
        }
        if let Some(start) = start {
            latencies.push(start.elapsed().as_nanos() as u64);
        }
    }
    // Publish the shards' residue before the join: the caller's
    // cross-check against site totals must see every op.
    map.flush();
    WorkerResult {
        ops: cfg.ops_per_thread,
        per_op,
        latencies,
    }
}

/// Runs the closed-loop load against `map` and reports what was measured.
///
/// Spawns `cfg.threads` workers, waits for all of them, and merges their
/// tallies. Every worker flushes the map's shard buffers before exiting,
/// so the site's flushed totals match [`LoadReport::per_op_totals`] exactly
/// once this returns.
pub fn run_concurrent_load(map: &ConcurrentMap<u64, u64>, cfg: ConcurrentLoad) -> LoadReport {
    assert!(cfg.threads > 0, "need at least one worker");
    let started = Instant::now();
    let results: Vec<WorkerResult> = (0..cfg.threads as u64)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || worker(map, cfg, t))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("load worker panicked"))
        .collect();
    let elapsed = started.elapsed();

    let mut per_op_totals = [0u64; 4];
    let mut latencies_ns = Vec::new();
    let mut per_thread_ops = Vec::with_capacity(results.len());
    for r in results {
        for (total, n) in per_op_totals.iter_mut().zip(r.per_op) {
            *total += n;
        }
        latencies_ns.extend(r.latencies);
        per_thread_ops.push(r.ops);
    }
    latencies_ns.sort_unstable();
    let total_ops: u64 = per_thread_ops.iter().sum();
    LoadReport {
        total_ops,
        per_thread_ops,
        per_op_totals,
        elapsed,
        throughput_ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        latencies_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_collections::MapKind;
    use cs_core::Switch;
    use cs_runtime::Runtime;

    fn small_load() -> ConcurrentLoad {
        ConcurrentLoad {
            threads: 4,
            keys: 512,
            ops_per_thread: 5_000,
            latency_sample_mask: 15,
            ..ConcurrentLoad::default()
        }
    }

    #[test]
    fn report_totals_match_site_totals_exactly() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        let report = run_concurrent_load(&map, small_load());

        assert_eq!(report.total_ops, 20_000);
        assert_eq!(report.per_thread_ops, vec![5_000; 4]);
        assert_eq!(report.per_op_totals.iter().sum::<u64>(), 20_000);

        // The zero-lost-ops invariant, checked from outside cs-runtime.
        let stats = map.stats();
        assert_eq!(stats.ops, report.per_op_totals);
        assert_eq!(stats.total_ops, report.total_ops);
    }

    #[test]
    fn read_fraction_shapes_the_mix() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        let report = run_concurrent_load(
            &map,
            ConcurrentLoad {
                read_fraction: 0.9,
                ..small_load()
            },
        );
        let reads = report.per_op_totals[OpKind::Contains.index()];
        let frac = reads as f64 / report.total_ops as f64;
        assert!(
            (0.85..0.95).contains(&frac),
            "read fraction drifted: {frac}"
        );
        assert!(report.per_op_totals[OpKind::Populate.index()] > 0);
        assert!(report.per_op_totals[OpKind::Middle.index()] > 0);
    }

    #[test]
    fn phase_flips_invert_the_mix() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        // Flip halfway: 90% reads then 10% reads averages to ~50%.
        let report = run_concurrent_load(
            &map,
            ConcurrentLoad {
                read_fraction: 0.9,
                phase_flip_every: Some(2_500),
                ..small_load()
            },
        );
        let reads = report.per_op_totals[OpKind::Contains.index()];
        let frac = reads as f64 / report.total_ops as f64;
        assert!((0.45..0.55).contains(&frac), "flipped mix drifted: {frac}");
    }

    #[test]
    fn latency_sampling_and_percentiles() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.concurrent_map::<u64, u64>(MapKind::Chained);
        let report = run_concurrent_load(&map, small_load());
        // mask 15: each worker samples at i = 0, 16, ... -> ceil(5000/16).
        assert_eq!(report.latencies_ns.len(), 4 * 5_000usize.div_ceil(16));
        assert!(report.p50_ns() <= report.p99_ns());
        assert!(report.p99_ns() <= report.max_ns());
        assert!(report.throughput_ops_per_sec > 0.0);
        let sorted = report.latencies_ns.windows(2).all(|w| w[0] <= w[1]);
        assert!(sorted, "latencies must come back sorted");
    }
}
