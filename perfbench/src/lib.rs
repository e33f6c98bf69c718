//! # cs-perfbench
//!
//! One benchmark for the CollectionSwitch reproduction's own claims, run
//! per workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! | workload | what runs |
//! |---|---|
//! | `apps_rtime` | the five Table 5 apps, FullAdap(`R_time`) vs Original |
//! | `apps_noswitch` | the same apps, FullAdap(impossible rule) vs Original (§5.3) |
//! | `phased_lists` | the Fig. 6 phase sequence, `R_time` vs a fixed ArrayList |
//! | `concurrent_map` | a cs-runtime `ConcurrentMap` vs `ShardedHashMap`, 2 workers |
//!
//! A run alternates the adaptive and the baseline configuration rep by rep
//! for the given number of seconds (at least [`MIN_ROUNDS`] rounds), checks
//! every output, and reports medians over rounds. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` adds traced reps with spans around every
//! call into a layer and reports the per-layer metrics derived from them
//! (see `README.md`).

use std::any::Any;
use std::time::{Duration, Instant};

pub mod apps;
pub mod concurrent;
pub mod drive;
pub mod phased;
pub mod select;
pub mod stats;
pub mod trace;

use stats::{summarize, LatencyHist, Summary};
use trace::{dur_per_unit, mean_dur, Span, Tracer};

/// Fewest measured rounds per run, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;
/// Batches of set-ups timed per run for `setup_s` (median over batches).
pub const SETUP_BATCHES: usize = 50;
/// Set-ups per batch; a batch's time divided by this is one sample.
pub const SETUP_BATCH: u32 = 10;
/// Scale of the Table 5 apps (instances per site multiplier).
pub const APPS_SCALE: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

/// The benchmark's workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 5 apps under FullAdap(`R_time`).
    AppsRtime,
    /// Table 5 apps under FullAdap(impossible rule): §5.3.
    AppsNoswitch,
    /// The Fig. 6 phased list scenario.
    PhasedLists,
    /// The concurrent runtime map.
    ConcurrentMap,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::AppsRtime,
        Workload::AppsNoswitch,
        Workload::PhasedLists,
        Workload::ConcurrentMap,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AppsRtime => "apps_rtime",
            Workload::AppsNoswitch => "apps_noswitch",
            Workload::PhasedLists => "phased_lists",
            Workload::ConcurrentMap => "concurrent_map",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; the run stops after the first round past it.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrinks every input to a smoke-test size.
    pub tiny: bool,
}

/// Layer counters of one rep, summed over its units.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Collection instances created.
    pub instances: u64,
    /// Instances the framework sampled for monitoring.
    pub monitored_instances: u64,
    /// Ops issued on monitored instances.
    pub monitored_ops: u64,
    /// `analyze_now` calls.
    pub analyze_calls: u64,
    /// Variant transitions.
    pub transitions: u64,
    /// Transitions rolled back by post-switch verification.
    pub rollbacks: u64,
    /// Candidates quarantined.
    pub quarantines: u64,
    /// Profiles accepted by context sinks.
    pub profiles_pushed: u64,
    /// Profiles evicted by bounded sinks.
    pub profiles_dropped: u64,
    /// Thread-local buffer flushes into runtime sites.
    pub flushes: u64,
    /// Contended shard-lock acquisitions.
    pub contended: u64,
    /// Runtime site variant switches.
    pub switches: u64,
    /// Runtime strategy migrations.
    pub migrations: u64,
    /// Ops the generator issued that the runtime site never counted.
    pub lost_ops: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.instances += o.instances;
        self.monitored_instances += o.monitored_instances;
        self.monitored_ops += o.monitored_ops;
        self.analyze_calls += o.analyze_calls;
        self.transitions += o.transitions;
        self.rollbacks += o.rollbacks;
        self.quarantines += o.quarantines;
        self.profiles_pushed += o.profiles_pushed;
        self.profiles_dropped += o.profiles_dropped;
        self.flushes += o.flushes;
        self.contended += o.contended;
        self.switches += o.switches;
        self.migrations += o.migrations;
        self.lost_ops += o.lost_ops;
    }
}

/// What one run of one unit in one configuration produced.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Wall time of the fixed input, set-up excluded.
    pub wall: Duration,
    /// Collection ops issued.
    pub ops: u64,
    /// Sampled op latencies.
    pub latency: LatencyHist,
    /// Peak tracked collection bytes.
    pub peak_bytes: u64,
    /// Cumulative tracked collection bytes allocated.
    pub alloc_bytes: u64,
    /// Output checksums, compared item by item with the baseline's.
    pub checks: Vec<u64>,
    /// Outputs the run validated itself.
    pub self_checked: u64,
    /// Of those, how many were wrong.
    pub self_failed: u64,
    /// Layer counters.
    pub counts: Counts,
}

/// A workload as the harness drives it.
pub trait Bench {
    /// Independent units making up one round (the five apps; else one).
    fn units(&self) -> usize;
    /// Builds what the adaptive configuration needs before its first op:
    /// the engine (or runtime) with its models and every site.
    fn setup(&self) -> Box<dyn Any>;
    /// Runs `unit` once in the adaptive or the baseline configuration.
    fn run(&mut self, unit: usize, adaptive: bool, tracer: Option<&mut Tracer>) -> RepOutcome;
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Median, IQR and sample count.
    pub summary: Summary,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    /// Every output checked was right.
    pub correct: bool,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs found wrong.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

fn bench_for(p: &Params) -> Box<dyn Bench> {
    use cs_core::SelectionRule;
    let scale = if p.tiny { 1 } else { APPS_SCALE };
    match p.workload {
        Workload::AppsRtime => Box::new(apps::Apps::new(scale, SelectionRule::r_time(), p.seed)),
        Workload::AppsNoswitch => {
            Box::new(apps::Apps::new(scale, SelectionRule::impossible(), p.seed))
        }
        Workload::PhasedLists => Box::new(phased::Phased::new(p.seed, p.tiny)),
        Workload::ConcurrentMap => Box::new(concurrent::Concurrent::new(p.seed, p.tiny)),
    }
}

/// Compares outputs against the baseline's reference outputs.
#[derive(Default)]
struct Checker {
    reference: Vec<Option<Vec<u64>>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, unit: usize, out: &RepOutcome) {
        self.attempted += out.self_checked;
        self.failed += out.self_failed;
        let Some(reference) = &self.reference[unit] else {
            self.reference[unit] = Some(out.checks.clone());
            return;
        };
        self.attempted += reference.len() as u64;
        let agree = reference.iter().zip(&out.checks).filter(|(a, b)| a == b);
        self.failed += reference.len() as u64 - agree.count() as u64;
    }
}

/// The kinds of rep a round can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rep {
    Adaptive,
    Baseline,
    AdaptiveTraced,
    BaselineTraced,
}

/// One round: every unit once in every rep kind of the run.
#[derive(Default)]
struct Round {
    /// Wall seconds per rep kind, summed over units.
    wall: [f64; 4],
    /// Ops of one whole input.
    ops: u64,
    /// Footprints and counters of the adaptive rep the metrics describe
    /// (untraced, or traced in a traced run), summed over units.
    peak_bytes: u64,
    alloc_bytes: u64,
    counts: Counts,
    /// Op latency p50 and p99 of the untraced adaptive reps.
    latency: [f64; 2],
}

impl Round {
    fn secs(&self, k: Rep) -> f64 {
        self.wall[k as usize]
    }
}

/// Runs one workload for `p.seconds` and reports its metrics.
pub fn run(p: &Params) -> Report {
    let mut bench = bench_for(p);
    let units = bench.units();
    let mut checker = Checker {
        reference: vec![None; units],
        ..Checker::default()
    };

    // Untimed warm-up; its outputs are the reference every rep must match.
    for unit in 0..units {
        let out = bench.run(unit, false, None);
        checker.check(unit, &out);
    }
    let setup = time_setup(bench.as_ref());

    let mut tracer = Tracer::default();
    let kinds: &[Rep] = if p.trace {
        &[
            Rep::Adaptive,
            Rep::Baseline,
            Rep::AdaptiveTraced,
            Rep::BaselineTraced,
        ]
    } else {
        &[Rep::Adaptive, Rep::Baseline]
    };
    let described = if p.trace {
        Rep::AdaptiveTraced
    } else {
        Rep::Adaptive
    };
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < p.seconds {
        let r = rounds.len();
        let mut round = Round::default();
        let mut latency = LatencyHist::default();
        for unit in 0..units {
            // Rotate the order each rep so drift hits every kind equally.
            for i in 0..kinds.len() {
                let kind = kinds[(i + r + unit) % kinds.len()];
                let traced = matches!(kind, Rep::AdaptiveTraced | Rep::BaselineTraced);
                let adaptive = matches!(kind, Rep::Adaptive | Rep::AdaptiveTraced);
                tracer.rep = r as u32;
                let rep_open = tracer.open();
                tracer.root = rep_open.id;
                let out = bench.run(unit, adaptive, traced.then_some(&mut tracer));
                if traced {
                    let name = if adaptive {
                        "rep.adaptive"
                    } else {
                        "rep.baseline"
                    };
                    tracer.close(rep_open, 0, name, "bench", 1);
                }
                checker.check(unit, &out);
                round.wall[kind as usize] += out.wall.as_secs_f64();
                if kind == Rep::Adaptive {
                    round.ops += out.ops;
                    latency.merge(&out.latency);
                }
                if kind == described {
                    round.peak_bytes += out.peak_bytes;
                    round.alloc_bytes += out.alloc_bytes;
                    round.counts += out.counts;
                }
            }
        }
        if p.trace {
            select::trace(&mut tracer);
        }
        round.latency = [latency.percentile_band(0.50), latency.percentile_band(0.99)];
        rounds.push(round);
    }

    let metrics = if p.trace {
        per_layer(&rounds, tracer.spans())
    } else {
        end_to_end(&rounds, setup)
    };
    Report {
        correct: checker.failed == 0 && checker.attempted > 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        spans: if p.trace {
            tracer.spans().to_vec()
        } else {
            Vec::new()
        },
    }
}

/// `setup_s`: the median over [`SETUP_BATCHES`] batches of the mean
/// set-up time in a batch of [`SETUP_BATCH`]; each set-up is torn down,
/// untimed, before the next.
fn time_setup(bench: &dyn Bench) -> Summary {
    let batches: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| {
            let batch: Duration = (0..SETUP_BATCH)
                .map(|_| {
                    let start = Instant::now();
                    let built = bench.setup();
                    let elapsed = start.elapsed();
                    drop(built);
                    elapsed
                })
                .sum();
            batch.as_secs_f64() / f64::from(SETUP_BATCH)
        })
        .collect();
    summarize(&batches)
}

fn metric(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    Metric {
        name,
        unit,
        summary: summarize(samples),
    }
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// The end-to-end metrics. Run time is the ratio of the adaptive to the
/// baseline configuration within each round, where the two ran back to
/// back: the machine's speed drifts by far more than a useful bound over
/// minutes, and a paired ratio cancels that drift (see `README.md`).
fn end_to_end(rounds: &[Round], setup: Summary) -> Vec<Metric> {
    vec![
        metric(
            "adaptive_over_baseline",
            "ratio",
            &per_round(rounds, |r| r.secs(Rep::Adaptive) / r.secs(Rep::Baseline)),
        ),
        metric(
            "peak_rss_mb",
            "MiB",
            &[cs_heap::peak_rss_bytes() as f64 / MIB],
        ),
        Metric {
            name: "setup_s",
            unit: "s",
            summary: setup,
        },
    ]
}

fn per_layer(rounds: &[Round], spans: &[Span]) -> Vec<Metric> {
    let count = |f: fn(&Counts) -> u64| per_round(rounds, move |r| f(&r.counts) as f64);
    let ratio = |num: fn(&Counts) -> u64, den: fn(&Counts) -> u64| {
        per_round(rounds, move |r| {
            let d = den(&r.counts);
            if d == 0 {
                0.0
            } else {
                num(&r.counts) as f64 / d as f64
            }
        })
    };
    let one = |v: Option<f64>| [v.unwrap_or(0.0)];
    let core = |s: &Span| s.layer == "core" || s.layer == "runtime";
    let script = |s: &Span| s.name.starts_with("script") || s.name == "op";
    let per_call = |name: &str| -> Vec<f64> {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / s.n as f64)
            .collect();
        if v.is_empty() {
            vec![0.0]
        } else {
            v
        }
    };
    vec![
        metric(
            "run.adaptive_s",
            "s",
            &per_round(rounds, |r| r.secs(Rep::Adaptive)),
        ),
        metric(
            "run.baseline_s",
            "s",
            &per_round(rounds, |r| r.secs(Rep::Baseline)),
        ),
        metric(
            "run.ops_per_s",
            "ops/s",
            &per_round(rounds, |r| r.ops as f64 / r.secs(Rep::Adaptive)),
        ),
        metric("run.op_p50_ns", "ns", &per_round(rounds, |r| r.latency[0])),
        metric("run.op_p99_ns", "ns", &per_round(rounds, |r| r.latency[1])),
        metric(
            "collections.op_ns",
            "ns",
            &one(dur_per_unit(spans, |s| {
                s.layer == "collections" && script(s)
            })),
        ),
        metric(
            "collections.peak_mb",
            "MiB",
            &per_round(rounds, |r| r.peak_bytes as f64 / MIB),
        ),
        metric(
            "collections.alloc_mb",
            "MiB",
            &per_round(rounds, |r| r.alloc_bytes as f64 / MIB),
        ),
        metric(
            "core.op_ns",
            "ns",
            &one(dur_per_unit(spans, |s| core(s) && script(s))),
        ),
        metric(
            "core.op_ns.monitored",
            "ns",
            &one(dur_per_unit(spans, |s| {
                core(s) && (s.name == "script.monitored" || s.name == "op")
            })),
        ),
        metric(
            "core.monitored_op_frac",
            "ratio",
            &per_round(rounds, |r| {
                r.counts.monitored_ops as f64 / r.ops.max(1) as f64
            }),
        ),
        metric(
            "core.monitored_frac",
            "ratio",
            &ratio(|c| c.monitored_instances, |c| c.instances),
        ),
        metric(
            "core.create_ns",
            "ns",
            &one(mean_dur(spans, |s| core(s) && s.name == "create")),
        ),
        metric(
            "core.drop_ns",
            "ns",
            &one(mean_dur(spans, |s| core(s) && s.name == "drop")),
        ),
        metric(
            "core.analyze_ns",
            "ns",
            &one(mean_dur(spans, |s| s.name == "analyze_now")),
        ),
        metric("core.analyze_calls", "count", &count(|c| c.analyze_calls)),
        metric("core.transitions", "count", &count(|c| c.transitions)),
        metric("core.rollbacks", "count", &count(|c| c.rollbacks)),
        metric("core.quarantines", "count", &count(|c| c.quarantines)),
        metric(
            "core.rollback_ratio",
            "ratio",
            &ratio(|c| c.rollbacks, |c| c.transitions),
        ),
        metric("model.select_ns.w100", "ns", &per_call(select::W100)),
        metric("model.select_ns.w10k", "ns", &per_call(select::W10K)),
        metric("profile.pushed", "count", &count(|c| c.profiles_pushed)),
        metric("profile.dropped", "count", &count(|c| c.profiles_dropped)),
        metric("runtime.flushes", "count", &count(|c| c.flushes)),
        metric("runtime.contended", "count", &count(|c| c.contended)),
        metric("runtime.switches", "count", &count(|c| c.switches)),
        metric("runtime.migrations", "count", &count(|c| c.migrations)),
        metric("runtime.lost_ops", "count", &count(|c| c.lost_ops)),
        metric(
            "trace.overhead",
            "ratio",
            &per_round(rounds, |r| {
                r.secs(Rep::AdaptiveTraced) / r.secs(Rep::Adaptive) - 1.0
            }),
        ),
    ]
}
